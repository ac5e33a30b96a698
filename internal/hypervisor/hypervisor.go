// Package hypervisor simulates the KVM/libvirt substrate the paper's
// prototype is built on (Section 6): domains (VMs) with lifecycle
// management, vCPU-to-pCPU multiplexing through cgroup CPU bandwidth
// control, dynamic memory limits, disk and network throttles, and
// QEMU-agent-style CPU/memory hotplug that is forwarded to the guest OS.
//
// The exported API mirrors the slice of libvirt the paper uses:
// define/start/shutdown/undefine, SetCPUShares / SetMemoryLimit /
// SetDiskLimit / SetNetLimit for transparent deflation, and
// HotplugVCPUs / HotplugMemory for explicit deflation. A Domain's
// Effective() vector — the resources the applications inside actually
// get — is the single point of truth consumed by the performance models.
package hypervisor

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"vmdeflate/internal/cgroups"
	"vmdeflate/internal/guestos"
	"vmdeflate/internal/policy"
	"vmdeflate/internal/resources"
)

// Errors returned by the hypervisor.
var (
	ErrExists   = errors.New("hypervisor: domain already exists")
	ErrNotFound = errors.New("hypervisor: domain not found")
	ErrState    = errors.New("hypervisor: invalid domain state")
	ErrInvalid  = errors.New("hypervisor: invalid configuration")
)

// DomainState is the lifecycle state of a domain.
type DomainState int

const (
	// Defined means the domain exists but is not running.
	Defined DomainState = iota
	// Running means the domain is executing.
	Running
	// Shutoff means the domain was stopped but remains defined.
	Shutoff
)

// String names the state like `virsh list` would.
func (s DomainState) String() string {
	switch s {
	case Defined:
		return "defined"
	case Running:
		return "running"
	case Shutoff:
		return "shut off"
	default:
		return fmt.Sprintf("DomainState(%d)", int(s))
	}
}

// HostConfig describes a physical server.
type HostConfig struct {
	// Name identifies the host.
	Name string
	// Capacity is the host's physical resources.
	Capacity resources.Vector
}

// DefaultFloor is the mechanism-level minimum viable allocation: 1/20th
// of a core and 64 MB, per the paper's observation that even a 0.05-CPU
// microservice container keeps running. It is the deflation floor for
// domains that configure no explicit MinAllocation, and the per-dimension
// safety floor the mechanisms enforce on any target.
func DefaultFloor() resources.Vector {
	return resources.New(0.05, 64, 0, 0)
}

// DomainConfig describes a VM to be defined.
type DomainConfig struct {
	// Name identifies the domain on its host.
	Name string
	// Size is the nominal (undeflated) allocation M_i.
	Size resources.Vector
	// Deflatable marks low-priority VMs whose resources may be reclaimed.
	Deflatable bool
	// Priority pi in (0,1] — higher priority means lower deflation
	// tolerance (Section 5.1.2). Ignored for non-deflatable VMs.
	Priority float64
	// MinAllocation m_i is an optional QoS floor per Section 5.1.1
	// equation (2). Zero means no floor.
	MinAllocation resources.Vector
	// Load is the domain's initial offered request load in cores
	// (core-seconds of CPU demand per second). It seeds the live value
	// maintained by SetOfferedLoad, so a VM admitted — or evacuated to a
	// new server — under load is visible to latency-aware policies from
	// its first policy pass. Load feeds only the host's deflatable view
	// (policy.VMState.Load); no aggregate depends on it.
	Load float64
}

func (c *DomainConfig) validate() error {
	if c.Name == "" {
		return fmt.Errorf("%w: empty domain name", ErrInvalid)
	}
	if c.Size.Get(resources.CPU) < 1 || c.Size.Get(resources.Memory) <= 0 {
		return fmt.Errorf("%w: domain %s needs at least 1 CPU and some memory", ErrInvalid, c.Name)
	}
	if err := c.Size.CheckNonNegative(); err != nil {
		return err
	}
	if err := c.MinAllocation.CheckNonNegative(); err != nil {
		return err
	}
	if !c.MinAllocation.FitsIn(c.Size) {
		return fmt.Errorf("%w: domain %s min allocation exceeds size", ErrInvalid, c.Name)
	}
	if c.Deflatable && (c.Priority < 0 || c.Priority > 1) {
		return fmt.Errorf("%w: domain %s priority %g outside (0,1]", ErrInvalid, c.Name, c.Priority)
	}
	if c.Load < 0 {
		return fmt.Errorf("%w: domain %s negative offered load %g", ErrInvalid, c.Name, c.Load)
	}
	return nil
}

// Floor returns the configuration's deflation floor: the configured
// MinAllocation (the QoS floor m_i of equation (2)), or DefaultFloor
// capped by the nominal size when none is set.
func (c DomainConfig) Floor() resources.Vector {
	if !c.MinAllocation.IsZero() {
		return c.MinAllocation
	}
	return DefaultFloor().Min(c.Size)
}

// Aggregates is the host's resource accounting, maintained as a cache so
// that reading it is O(1) between mutations instead of a walk over every
// domain. The cached value is always bit-for-bit identical to a fresh
// name-order recomputation (the recompute itself iterates domains sorted
// by name), so consumers that depend on PR 1's float-summation
// determinism invariant can use it freely.
type Aggregates struct {
	// Committed is the sum of nominal sizes of all defined domains: the
	// numerator of the cluster overcommitment ratio (Section 1).
	Committed resources.Vector
	// Allocated is the sum of current (possibly deflated) allocations of
	// running domains: physical resources actually promised right now.
	Allocated resources.Vector
	// DeflatableReserve is the total resource reclaimable from running
	// deflatable domains: sum of (allocation - floor), clamped at zero —
	// the deflatable_j term of the paper's availability vector.
	DeflatableReserve resources.Vector
	// Running counts running domains; Deflated counts running deflatable
	// domains currently below their nominal size (DeflationFraction > 0).
	Running  int
	Deflated int
}

// Host is one simulated physical server running a KVM hypervisor.
type Host struct {
	cfg     HostConfig
	cgroups *cgroups.Hierarchy
	// capacity is the host's current physical capacity. It starts at
	// cfg.Capacity and moves only through SetCapacity (the transient
	// server shrank or was restored); an atomic pointer to an immutable
	// vector keeps the hot-path Capacity() reads lock-free.
	capacity atomic.Pointer[resources.Vector]
	mu       sync.Mutex
	domains  map[string]*Domain
	// order holds the domains sorted by name. Keeping it materialised
	// (rather than sorting in Domains()) makes the aggregate recompute
	// below iterate in a fixed order, which keeps float summations like
	// Allocated() bit-for-bit reproducible — map iteration order would
	// perturb the low bits run to run and break the simulator's
	// determinism guarantee.
	order []*Domain

	// Derived-state cache: the aggregates plus the deflatable VM-state
	// view (the policy-shaped picture of the host's running deflatable
	// domains, in name order, that the cluster layer's PlaceOn/Reinflate
	// policy passes consume). Both are stale-flagged together by every
	// mutation that can move an allocation or lifecycle state, and both
	// are rebuilt by ONE name-order walk that reads each domain through
	// a single lock acquisition — so a reinflation pass that needs the
	// aggregates and then the view costs one walk, not two. cacheMu
	// orders rebuilds and guards the cached values; the lock order is
	// cacheMu -> mu -> Domain.mu, and invalidation takes none of them
	// (atomic flag + leaf callback), so mutators that already hold mu or
	// a Domain lock can invalidate without deadlock.
	//
	// Offered load is the one input only the view reads, so a load
	// change sets loadDirty alone: the next view read patches each
	// state's Load in place, the aggregates stay clean, and no
	// aggregate-change callback fires.
	cacheMu      sync.Mutex
	cacheValid   bool
	cacheDirty   atomic.Bool
	loadDirty    atomic.Bool
	agg          Aggregates
	viewStates   []policy.VMState
	viewDoms     []*Domain
	cacheScratch []*Domain // reusable order snapshot for the rebuild walk
	walks        int       // rebuild walks so far (a work counter for tests)

	// onChange, when set, is called after every aggregate invalidation.
	// It may run while host or domain locks are held: implementations
	// must only record dirtiness (e.g. add the host to a dirty set) and
	// never call back into Host or Domain methods.
	cbMu     sync.Mutex
	onChange func()
}

// NewHost boots a hypervisor on a server with the given capacity.
func NewHost(cfg HostConfig) (*Host, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("%w: empty host name", ErrInvalid)
	}
	if err := cfg.Capacity.CheckNonNegative(); err != nil {
		return nil, err
	}
	if cfg.Capacity.IsZero() {
		return nil, fmt.Errorf("%w: host %s has no capacity", ErrInvalid, cfg.Name)
	}
	h := &Host{
		cfg:     cfg,
		cgroups: cgroups.NewHierarchy(),
		domains: make(map[string]*Domain),
	}
	c := cfg.Capacity
	h.capacity.Store(&c)
	return h, nil
}

// Name returns the host's name.
func (h *Host) Name() string { return h.cfg.Name }

// Capacity returns the host's current physical resources (the base
// capacity, unless SetCapacity resized the server).
func (h *Host) Capacity() resources.Vector { return *h.capacity.Load() }

// BaseCapacity returns the capacity the host was provisioned with,
// independent of any SetCapacity resize since.
func (h *Host) BaseCapacity() resources.Vector { return h.cfg.Capacity }

// SetCapacity resizes the host's physical capacity in place — the
// transient-server shrink/restore of a provider reclaiming (or
// returning) part of the machine. It follows the same dirty-flag
// discipline as every other mutation: the aggregate cache is
// invalidated and the registered aggregate-change callback fires, so a
// cluster manager's capacity index re-keys the server on its next
// query. The hypervisor itself does not shrink domains; fitting the
// residents into the new capacity is the cluster layer's job
// (deflation-first, then evacuation).
func (h *Host) SetCapacity(v resources.Vector) error {
	if err := v.CheckNonNegative(); err != nil {
		return err
	}
	if v.IsZero() {
		return fmt.Errorf("%w: host %s resized to zero capacity", ErrInvalid, h.cfg.Name)
	}
	h.capacity.Store(&v)
	h.invalidateAggregates()
	return nil
}

// OnAggregateChange registers fn to be called when a mutation (any
// define/undefine, lifecycle transition, limit change, hotplug or
// capacity resize) invalidates the host's clean aggregate cache. An
// offered-load report (SetOfferedLoad) is not such a mutation: it moves
// no aggregate, so it never fires fn. Notifications are
// edge-triggered: while the cache is already stale further mutations
// are coalesced into the pending notification, and the next
// Aggregates()/AppendDeflatableView() read re-arms the edge — exactly
// the contract a dirty-set consumer needs, at one callback per dirty
// episode instead of one per mutation. The callback may fire while host
// or domain locks are held, so it must only record dirtiness —
// typically marking the host in a cluster-level dirty set — and must
// not call back into Host or Domain methods. Passing nil unregisters.
func (h *Host) OnAggregateChange(fn func()) {
	h.cbMu.Lock()
	h.onChange = fn
	h.cbMu.Unlock()
}

// invalidateAggregates flags the derived-state cache stale and, on the
// clean-to-stale edge, notifies the registered callback. It takes no
// host or domain locks, so any mutator may call it regardless of what
// it already holds. The edge trigger is sound for dirty-set consumers:
// a skipped notification means the cache has been continuously stale
// since the last notification, so the consumer's dirty mark is still
// pending (the mark is only consumed together with the cache refresh
// that re-arms the edge).
func (h *Host) invalidateAggregates() {
	if h.cacheDirty.Swap(true) {
		return // already stale: notification still pending downstream
	}
	h.cbMu.Lock()
	fn := h.onChange
	h.cbMu.Unlock()
	if fn != nil {
		fn()
	}
}

// Aggregates returns the host's cached resource aggregates, recomputing
// them (one name-order walk) only if a mutation happened since the last
// read. Between mutations this is O(1), which is what makes per-arrival
// cluster scans affordable at scale.
func (h *Host) Aggregates() Aggregates {
	h.cacheMu.Lock()
	defer h.cacheMu.Unlock()
	h.refreshCacheLocked()
	return h.agg
}

// refreshCacheLocked rebuilds the aggregates and the deflatable VM-state
// view in one name-order walk — the fixed iteration order that keeps the
// float summations reproducible — if a mutation happened since the last
// read, and reports whether it did. Each domain is read through a single
// snapshot (one lock acquisition) shared by both derivations. Called
// with cacheMu held.
func (h *Host) refreshCacheLocked() bool {
	if !h.cacheDirty.Swap(false) && h.cacheValid {
		return false
	}
	h.walks++
	h.mu.Lock()
	h.cacheScratch = append(h.cacheScratch[:0], h.order...)
	h.mu.Unlock()
	var a Aggregates
	h.viewStates = h.viewStates[:0]
	h.viewDoms = h.viewDoms[:0]
	for _, d := range h.cacheScratch {
		a.Committed = a.Committed.Add(d.cfg.Size)
		state, alloc, load := d.snapshot()
		if state != Running {
			continue
		}
		a.Running++
		a.Allocated = a.Allocated.Add(alloc)
		if !d.cfg.Deflatable {
			continue
		}
		floor := d.Floor()
		a.DeflatableReserve = a.DeflatableReserve.Add(alloc.Sub(floor).ClampNonNegative())
		if alloc.DeflationFraction(d.cfg.Size) > 0 {
			a.Deflated++
		}
		h.viewStates = append(h.viewStates, policy.VMState{
			Name:     d.cfg.Name,
			Max:      d.cfg.Size,
			Min:      floor,
			Priority: d.cfg.Priority,
			Current:  alloc,
			Load:     load,
		})
		h.viewDoms = append(h.viewDoms, d)
	}
	h.agg = a
	h.cacheValid = true
	return true
}

// AppendDeflatableView appends the host's cached policy view of its
// running deflatable domains — one policy.VMState plus the matching
// *Domain per VM, in name order — to states and domains, and returns the
// extended slices. The cache is rebuilt (one name-order walk into reused
// buffers) only if a mutation happened since the last read, so a
// steady-state policy pass costs one memcpy instead of a Domains() walk
// that re-takes every domain lock and re-derives every floor. Callers
// own the destination slices; passing buffers they reuse across passes
// makes the whole read allocation-free.
//
// The appended states are a snapshot: a subsequent allocation or
// lifecycle mutation invalidates the cache but not slices already handed
// out, exactly like Aggregates(). Offered-load changes alone cost no
// walk: each cached state's Load is re-read in place.
func (h *Host) AppendDeflatableView(states []policy.VMState, domains []*Domain) ([]policy.VMState, []*Domain) {
	h.cacheMu.Lock()
	// Clear the load flag before any read, so a report racing with this
	// call re-flags the view for the next one.
	loadStale := h.loadDirty.Swap(false)
	if !h.refreshCacheLocked() && loadStale {
		for i, d := range h.viewDoms {
			h.viewStates[i].Load = d.OfferedLoad()
		}
	}
	states = append(states, h.viewStates...)
	domains = append(domains, h.viewDoms...)
	h.cacheMu.Unlock()
	return states, domains
}

// Define creates a domain. Defining does not reserve physical resources:
// like a real IaaS hypervisor, the host permits overcommitment, which is
// exactly what deflation exists to manage.
func (h *Host) Define(cfg DomainConfig) (*Domain, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.domains[cfg.Name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, cfg.Name)
	}
	cg, err := h.cgroups.Create("machine/" + cfg.Name)
	if err != nil {
		return nil, err
	}
	guest, err := guestos.New(guestos.Config{
		VCPUs:    int(math.Round(cfg.Size.Get(resources.CPU))),
		MemoryMB: cfg.Size.Get(resources.Memory),
	})
	if err != nil {
		h.cgroups.Remove(cg.Name())
		return nil, err
	}
	d := &Domain{
		host:  h,
		cfg:   cfg,
		state: Defined,
		guest: guest,
		cg:    cg,
		load:  cfg.Load,
	}
	h.domains[cfg.Name] = d
	i := sort.Search(len(h.order), func(i int) bool { return h.order[i].cfg.Name >= cfg.Name })
	h.order = append(h.order, nil)
	copy(h.order[i+1:], h.order[i:])
	h.order[i] = d
	h.invalidateAggregates()
	return d, nil
}

// Lookup finds a domain by name.
func (h *Host) Lookup(name string) (*Domain, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	d, ok := h.domains[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return d, nil
}

// Domains lists domains sorted by name.
func (h *Host) Domains() []*Domain {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*Domain, len(h.order))
	copy(out, h.order)
	return out
}

// Undefine removes a stopped domain from the host.
func (h *Host) Undefine(name string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	d, ok := h.domains[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	d.mu.Lock()
	st := d.state
	d.mu.Unlock()
	if st == Running {
		return fmt.Errorf("%w: cannot undefine running domain %s", ErrState, name)
	}
	h.cgroups.Remove(d.cg.Name())
	delete(h.domains, name)
	i := sort.Search(len(h.order), func(i int) bool { return h.order[i].cfg.Name >= name })
	h.order = append(h.order[:i], h.order[i+1:]...)
	h.invalidateAggregates()
	return nil
}

// Committed returns the sum of the nominal sizes of all defined domains:
// the numerator of the cluster overcommitment ratio (Section 1). Served
// from the aggregate cache.
func (h *Host) Committed() resources.Vector {
	return h.Aggregates().Committed
}

// Allocated returns the sum of the current (possibly deflated) allocations
// of running domains: physical resources actually promised right now.
// Served from the aggregate cache; the underlying summation is always in
// name order so the low bits are reproducible.
func (h *Host) Allocated() resources.Vector {
	return h.Aggregates().Allocated
}

// Available returns Capacity - Allocated, clamped at zero.
func (h *Host) Available() resources.Vector {
	return h.Capacity().Sub(h.Allocated()).ClampNonNegative()
}

// Overcommit returns Committed/Capacity - 1 as the dominant-share
// overcommitment fraction (0 = fully packed, 0.5 = 50% overcommitted).
func (h *Host) Overcommit() float64 {
	oc := h.Committed().DominantShare(h.Capacity())
	if oc < 1 {
		return 0
	}
	return oc - 1
}

// Domain is one VM resident on a Host.
type Domain struct {
	host *Host
	cfg  DomainConfig

	mu    sync.Mutex
	state DomainState
	guest *guestos.GuestOS
	cg    *cgroups.Group

	// allocValid/allocCache memoise the derived allocation vector, which
	// every aggregation walk, policy pass and sample read re-reads many
	// times between mutations. Every mutation that can move the
	// allocation — cgroup limit changes and hotplug — clears the flag
	// (all such mutations route through Domain methods; the cgroup and
	// guest are never driven directly). Guarded by mu.
	allocValid bool
	allocCache resources.Vector

	// load is the offered request load (cores) last reported through
	// SetOfferedLoad, seeded from DomainConfig.Load. Guarded by mu.
	load float64

	// deflatedBy records the most recent mechanism label ("transparent",
	// "explicit", "hybrid") for observability.
	deflatedBy string
}

// Name returns the domain name.
func (d *Domain) Name() string { return d.cfg.Name }

// Config returns the domain's configuration.
func (d *Domain) Config() DomainConfig { return d.cfg }

// Host returns the host the domain resides on.
func (d *Domain) Host() *Host { return d.host }

// Guest exposes the simulated guest OS (used by mechanisms and by the
// application models to install memory footprints).
func (d *Domain) Guest() *guestos.GuestOS { return d.guest }

// Cgroup exposes the domain's control group.
func (d *Domain) Cgroup() *cgroups.Group { return d.cg }

// State returns the domain's lifecycle state.
func (d *Domain) State() DomainState {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state
}

// Start transitions Defined/Shutoff -> Running.
func (d *Domain) Start() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state == Running {
		return fmt.Errorf("%w: %s already running", ErrState, d.cfg.Name)
	}
	d.state = Running
	d.host.invalidateAggregates()
	return nil
}

// Shutdown transitions Running -> Shutoff.
func (d *Domain) Shutdown() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state != Running {
		return fmt.Errorf("%w: %s not running", ErrState, d.cfg.Name)
	}
	d.state = Shutoff
	d.host.invalidateAggregates()
	return nil
}

// MaxSize returns the nominal undeflated allocation M_i.
func (d *Domain) MaxSize() resources.Vector { return d.cfg.Size }

// MinAllocation returns the QoS floor m_i (zero vector if none).
func (d *Domain) MinAllocation() resources.Vector { return d.cfg.MinAllocation }

// Floor returns the domain's deflation floor: its configured minimum
// allocation, or DefaultFloor capped by the nominal size when none is
// set. This is the single definition shared by the cluster policies and
// the host's deflatable-reserve aggregate.
func (d *Domain) Floor() resources.Vector { return d.cfg.Floor() }

// Deflatable reports whether the domain may be deflated.
func (d *Domain) Deflatable() bool { return d.cfg.Deflatable }

// Priority returns pi (0 for non-deflatable domains).
func (d *Domain) Priority() float64 { return d.cfg.Priority }

// Allocation returns the domain's current allocation: the nominal size
// capped by both explicit hotplug state and transparent cgroup limits.
// This is the vector the cluster policies account against.
func (d *Domain) Allocation() resources.Vector {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.allocationLocked()
}

// snapshot returns the domain's lifecycle state, current allocation and
// offered load through one lock acquisition — the combined read the
// host's cache rebuild walk uses so it pays one domain lock per domain
// instead of one per accessor.
func (d *Domain) snapshot() (DomainState, resources.Vector, float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state, d.allocationLocked(), d.load
}

// OfferedLoad returns the domain's current offered request load (cores).
func (d *Domain) OfferedLoad() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.load
}

// SetOfferedLoad reports the domain's current offered request load in
// cores (core-seconds of demand per second), as metered by whatever is
// watching the VM's request stream. Latency-aware policies read it from
// the host's deflatable view. Negative values clamp to zero. Load moves
// no aggregate, so a change only flags the host's view stale: the
// aggregates stay cached, OnAggregateChange does not fire, and the next
// AppendDeflatableView patches the new Load in without a walk.
// Re-reporting an unchanged load flags nothing.
func (d *Domain) SetOfferedLoad(v float64) {
	if v < 0 {
		v = 0
	}
	d.mu.Lock()
	changed := d.load != v
	d.load = v
	d.mu.Unlock()
	if changed {
		d.host.loadDirty.Store(true)
	}
}

func (d *Domain) allocationLocked() resources.Vector {
	if !d.allocValid {
		plugged := d.cfg.Size.
			With(resources.CPU, float64(d.guest.OnlineVCPUs())).
			With(resources.Memory, d.guest.PluggedMemoryMB())
		d.allocCache = d.cg.Effective(plugged)
		d.allocValid = true
	}
	return d.allocCache
}

// Effective is an alias of Allocation emphasising that this is what the
// guest's applications can actually consume.
func (d *Domain) Effective() resources.Vector { return d.Allocation() }

// DeflationFraction returns how deflated the domain currently is,
// averaged over the dimensions of its nominal size.
func (d *Domain) DeflationFraction() float64 {
	return d.Allocation().DeflationFraction(d.cfg.Size)
}

// --- Transparent deflation knobs (cgroup-backed, Section 4.2) ---

// setLimit engages one cgroup controller and invalidates the domain's
// allocation memo and the host's aggregate cache (a limit change can
// move the effective allocation).
func (d *Domain) setLimit(k resources.Kind, v float64) error {
	if err := d.cg.SetLimit(k, v); err != nil {
		return err
	}
	d.mu.Lock()
	d.allocValid = false
	d.mu.Unlock()
	d.host.invalidateAggregates()
	return nil
}

// SetCPUShares caps the domain's CPU consumption at cores physical cores
// by adjusting its cgroup CPU bandwidth. The guest still sees all its
// vCPUs; they just run slower.
func (d *Domain) SetCPUShares(cores float64) error {
	return d.setLimit(resources.CPU, cores)
}

// SetMemoryLimit caps the domain's physical memory at mb via the memory
// cgroup (mem.limit_in_bytes). If the limit is below the guest's resident
// set, the hypervisor swaps: the guest is unaware and performance
// suffers (see SwapPressure).
func (d *Domain) SetMemoryLimit(mb float64) error {
	return d.setLimit(resources.Memory, mb)
}

// SetDiskLimit throttles disk bandwidth (blkio cgroup).
func (d *Domain) SetDiskLimit(mbps float64) error {
	return d.setLimit(resources.DiskBW, mbps)
}

// SetNetLimit throttles network bandwidth.
func (d *Domain) SetNetLimit(mbps float64) error {
	return d.setLimit(resources.NetBW, mbps)
}

// ClearTransparentLimits removes all cgroup caps (full reinflation of the
// transparent dimension).
func (d *Domain) ClearTransparentLimits() {
	for _, k := range resources.Kinds {
		d.cg.ClearLimit(k)
	}
	d.mu.Lock()
	d.allocValid = false
	d.mu.Unlock()
	d.host.invalidateAggregates()
}

// --- Explicit deflation knobs (agent-based hotplug, Section 4.3) ---

// HotUnplugVCPUs asks the guest to offline n vCPUs. Partial success is
// normal; the returned count is what the guest actually released.
func (d *Domain) HotUnplugVCPUs(n int) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state != Running {
		return 0, fmt.Errorf("%w: %s not running", ErrState, d.cfg.Name)
	}
	n, err := d.guest.UnplugVCPUs(n)
	d.allocValid = false
	d.host.invalidateAggregates()
	return n, err
}

// HotPlugVCPUs asks the guest to online n vCPUs (bounded by the domain's
// configured vCPU count).
func (d *Domain) HotPlugVCPUs(n int) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state != Running {
		return 0, fmt.Errorf("%w: %s not running", ErrState, d.cfg.Name)
	}
	n, err := d.guest.PlugVCPUs(n)
	d.allocValid = false
	d.host.invalidateAggregates()
	return n, err
}

// HotUnplugMemory asks the guest to release up to mb of memory. The guest
// enforces its safety threshold (never below RSS) and block granularity;
// the returned amount is what was actually unplugged.
func (d *Domain) HotUnplugMemory(mb float64) (float64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state != Running {
		return 0, fmt.Errorf("%w: %s not running", ErrState, d.cfg.Name)
	}
	mb, err := d.guest.UnplugMemory(mb)
	d.allocValid = false
	d.host.invalidateAggregates()
	return mb, err
}

// HotPlugMemory returns memory to the guest (bounded by the domain's
// configured size).
func (d *Domain) HotPlugMemory(mb float64) (float64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state != Running {
		return 0, fmt.Errorf("%w: %s not running", ErrState, d.cfg.Name)
	}
	mb, err := d.guest.PlugMemory(mb)
	d.allocValid = false
	d.host.invalidateAggregates()
	return mb, err
}

// --- Performance-relevant introspection ---

// SwapPressure returns the fraction of the guest's resident set that the
// current *transparent* memory limit pushes out to hypervisor swap. This
// is the penalty transparent deflation pays that explicit deflation
// avoids (Section 4.4, Figure 14).
func (d *Domain) SwapPressure() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	limit, ok := d.cg.Limit(resources.Memory)
	if !ok {
		return 0
	}
	return d.guest.SwapPressure(limit)
}

// CacheLoss returns the fraction of guest page cache sacrificed to the
// current effective memory allocation.
func (d *Domain) CacheLoss() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	eff := d.allocationLocked()
	return d.guest.CacheLoss(eff.Get(resources.Memory))
}

// SetDeflatedBy records which mechanism last acted on the domain.
func (d *Domain) SetDeflatedBy(mechanism string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.deflatedBy = mechanism
}

// DeflatedBy returns the mechanism label recorded by SetDeflatedBy.
func (d *Domain) DeflatedBy() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.deflatedBy
}
