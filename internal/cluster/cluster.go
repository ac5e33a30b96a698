// Package cluster implements the centralized cluster manager of Sections
// 5.2 and 6: deflation-aware VM placement using cosine-similarity
// fitness, optional priority-partitioned server pools, the three-step
// placement protocol (choose best server → compute required deflation →
// deflate and launch), reinflation on VM departure, and admission
// control when even maximal deflation cannot make room.
//
// # Placement at scale
//
// The manager keeps two incremental indexes (capindex) per (priority
// pool, hazard band), maintained together under one dirty-flag
// discipline:
//
//   - the surplus index, keyed by dominant free share and augmented
//     with each subtree's maximum free vector, answering the
//     tightest-fit "who can host this with no deflation" query by a
//     descent that skips every subtree no server of which can hold the
//     VM — O(log servers) node touches unless the servers that fail the
//     fit are short on different dimensions (see
//     surplusCandidateLocked);
//   - the pressure index, keyed by |availability| — a demand-independent
//     upper bound on any VM's achievable cosine fitness (Cauchy–
//     Schwarz: A·D/|D| <= |A| for non-negative vectors) — answering the
//     under-pressure ranking by a best-first branch-and-bound descent
//     (pressure.go) that computes exact fitness only until the running
//     best provably beats the bound of every unexplored server.
//
// Hypervisor aggregate-change callbacks mark servers dirty; each query
// first refreshes only the dirty servers, so neither pass ever re-walks
// a clean server's domains. Config.ReferencePlacement retains the
// brute-force linear-scan path, and Config.FullPressureScan the linear
// indexed pressure scan; all paths implement the identical selection
// rule and the differential test suite asserts they place bit-for-bit
// identically.
//
// Placement is one serial decision per VM, in call order: a PlaceVMs
// batch (same-instant arrivals, an evacuation's displaced VMs) decides
// exactly as the same sequence of PlaceVM calls would.
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"vmdeflate/internal/cluster/capindex"
	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/mechanism"
	"vmdeflate/internal/notify"
	"vmdeflate/internal/policy"
	"vmdeflate/internal/resources"
)

// applyAndNotify applies target to d via cfg.Mechanism and publishes an
// allocation-change event when a bus is configured. When buf is non-nil
// the event is appended there instead of published — the parallel
// reinflation path buffers per-server events and publishes them merged
// in deterministic server order after its barrier.
func applyAndNotify(s *Server, cfg Config, d *hypervisor.Domain, target resources.Vector, buf *[]notify.Event) error {
	old := d.Allocation()
	got, err := cfg.Mechanism.Apply(d, target)
	if err != nil {
		return err
	}
	if cfg.Notify != nil && got != old {
		ev := notify.Event{
			VM:                d.Name(),
			Server:            s.Host.Name(),
			Kind:              notify.Classify(old, got),
			Old:               old,
			New:               got,
			DeflationFraction: d.DeflationFraction(),
			Mechanism:         d.DeflatedBy(),
		}
		if buf != nil {
			*buf = append(*buf, ev)
		} else {
			cfg.Notify.Publish(ev)
		}
	}
	return nil
}

// Errors returned by the manager.
var (
	// ErrNoCapacity is an admission-control rejection: no server can host
	// the VM even after deflating every deflatable VM to its floor. In
	// Figure 20's terms this is a "failure to reclaim sufficient
	// resources".
	ErrNoCapacity = errors.New("cluster: no server can host the VM")
	// ErrNotFound reports an unknown VM or server.
	ErrNotFound = errors.New("cluster: not found")
	// ErrExists reports a duplicate name.
	ErrExists = errors.New("cluster: already exists")
	// ErrHeadroom is a shock-aware admission rejection: the cluster has
	// room for the VM, but placing it would eat into the evacuation
	// headroom reserved against forecast revocation mass (Config.Risk).
	// Headroom rejections also satisfy errors.Is(err, ErrNoCapacity) —
	// they ARE admission-control rejections, and callers that only
	// classify accept/reject must not need to know about risk — while
	// ErrHeadroom lets callers attribute the cause.
	ErrHeadroom = errors.New("cluster: admission withheld for forecast evacuation headroom")
)

// Config parameterises a Manager.
type Config struct {
	// Policy is the server-level deflation policy.
	Policy policy.Policy
	// Mechanism applies deflation targets to domains.
	Mechanism mechanism.Mechanism
	// PartitionByPriority places VMs only on servers of their priority
	// pool (Section 5.2.1). Non-deflatable VMs use pool 0.
	PartitionByPriority bool
	// PriorityLevels is the number of discrete priority levels (4 in the
	// paper's simulation).
	PriorityLevels int
	// Notify, when set, receives an event for every allocation change
	// (Figure 1's notification to the application manager / load
	// balancer).
	Notify *notify.Bus
	// ReferencePlacement selects the retained brute-force placement path
	// — linear scans over every server — instead of the capacity index.
	// Both paths implement the identical selection rule and produce
	// bit-for-bit identical placements; the flag exists for differential
	// testing and for measuring what the index buys.
	ReferencePlacement bool
	// FullPressureScan keeps the linear indexed under-pressure scan —
	// every pool server scored from its cached availability vector —
	// instead of the bound-pruned best-first descent over the pressure
	// index. Both paths realize the identical strict candidate order
	// (band asc, fitness desc, add-index asc) and place bit-for-bit
	// identically; the flag exists for differential testing and for
	// measuring what the pruning buys (make bench-pressure).
	FullPressureScan bool
	// ReinflateShards caps how many goroutines a RemoveVMs batch may use
	// to reinflate its affected servers. 0 or 1 keeps reinflation
	// strictly sequential. Per-server reinflation reads and writes only
	// that server's host state, so the results are bit-for-bit identical
	// at any shard count; notification events are buffered per server
	// and published in the same deterministic first-touched server order
	// the sequential path uses.
	ReinflateShards int
	// CollectTimings accumulates per-phase wall times (commit/reinflate),
	// readable through Manager.PhaseTimings. Off by default: the clock
	// reads sit on the per-batch paths, and benchmarks should not pay
	// for them unasked.
	// Timing collection never influences any placement outcome.
	CollectTimings bool
	// Risk, when set, turns on the revocation-risk machinery: servers
	// carry a hazard band and a headroom reserve fraction
	// (AddServerSpec), admission withholds capacity that forecast
	// evacuations will need (ErrHeadroom), and high-priority VMs prefer
	// low-hazard servers through the banded candidate order. Nil keeps
	// every placement path bit-identical to the risk-unaware manager.
	Risk *RiskConfig
}

// RiskConfig parameterises shock-aware admission and placement.
type RiskConfig struct {
	// HighPriority is the priority at or above which a deflatable VM
	// gets the hazard-aware candidate order — and, like non-deflatable
	// VMs, bypasses the headroom admission gate (it is the revenue the
	// reserve protects). Default 0.75.
	HighPriority float64
	// MaxBands is how many hazard bands servers quantise into; the
	// banded candidate order prefers lower bands. Default 4.
	MaxBands int
}

func (c *Config) applyDefaults() {
	if c.Policy == nil {
		c.Policy = policy.Proportional{}
	}
	if c.Mechanism == nil {
		c.Mechanism = mechanism.Transparent{}
	}
	if c.PriorityLevels <= 0 {
		c.PriorityLevels = 4
	}
	// Clone Risk only when a default is actually missing: applyDefaults
	// runs on every PlaceOn call, and a normalised config (NewManager
	// normalises once) must not allocate on the placement hot path.
	if c.Risk != nil && (c.Risk.HighPriority <= 0 || c.Risk.MaxBands <= 0) {
		r := *c.Risk
		if r.HighPriority <= 0 {
			r.HighPriority = 0.75
		}
		if r.MaxBands <= 0 {
			r.MaxBands = 4
		}
		c.Risk = &r
	}
}

// WithDefaults returns a copy of c with unset fields filled in
// (proportional policy, transparent mechanism, 4 priority levels).
func (c Config) WithDefaults() Config {
	c.applyDefaults()
	return c
}

// Server is one managed physical server.
type Server struct {
	Host *hypervisor.Host
	// Partition is the server's priority pool (0-based); -1 when
	// partitioning is disabled.
	Partition int
	// gidx is the server's add order within its Manager — the canonical
	// tie-break for equal-fitness candidates and the ref its index
	// entries carry. Zero for standalone servers.
	gidx int
	// revoked marks a server the provider took away (RevokeServers): it
	// stays registered — keeping gidx and priority pool stable —
	// but leaves the capacity indexes and is skipped by every candidate
	// scan until RestoreServer clears the flag. Guarded by the Manager's
	// lock like the cached fields below.
	revoked bool
	// band is the server's hazard band (0 = lowest revocation hazard),
	// set at AddServerSpec from the risk model and immutable after: the
	// banded candidate order must be a pure function of configuration,
	// never of anything a run computes. Always 0 without Config.Risk.
	band int
	// reserveFrac/reserve is the server's contribution to the cluster's
	// evacuation-headroom reserve: reserveFrac of its capacity,
	// recomputed on resize, subtracted while the server is revoked (its
	// risk is then realised, not forecast). Guarded by the Manager's
	// lock.
	reserveFrac float64
	reserve     resources.Vector

	// Cached placement state, refreshed by the owning Manager's dirty
	// sync (syncDirtyLocked) and read only under the Manager's lock.
	// Servers constructed standalone (e.g. the per-node daemon wrapping
	// one Server for PlaceOn/Reinflate) never populate these.
	agg       hypervisor.Aggregates // aggregates at last sync, for delta totals
	free      resources.Vector      // capacity - allocated
	freeShare float64               // free.DominantShare(capacity): the index key
	avail     resources.Vector      // the Section 5.2 availability vector

	// scratch is the server's policy-pass arena: the VM-state/domain
	// buffers PlaceOn and Reinflate fill from the host's cached view,
	// plus the policy.Scratch the water-filling solvers run in. One
	// arena per server means concurrent passes on distinct servers
	// (parallel reinflation shards) never contend, and steady-state
	// passes never allocate. Guarded by whatever serialises passes on
	// this server: the Manager's lock, or the shard assignment that
	// gives each server to exactly one worker.
	scratch serverScratch
}

// serverScratch holds the reusable buffers for one server's policy
// passes.
type serverScratch struct {
	vms    []policy.VMState
	doms   []*hypervisor.Domain
	ps     policy.Scratch
	events []notify.Event // parallel-reinflation event buffer
}

// Manager is the centralized cluster manager. All methods are safe for
// concurrent use: every mutation and counter read happens under mu
// (per-Host state is additionally guarded by the Host's own lock).
type Manager struct {
	mu         sync.Mutex
	cfg        Config
	servers    []*Server
	byName     map[string]*Server
	placements map[string]*Server

	// Placement state, keyed by poolKey (priority pool × hazard band):
	// the surplus indexes, their fitness-bound twins (pressure.go) and
	// each key's component-wise max capacity, plus the dirty set the
	// hosts' aggregate-change callbacks feed. bandIdx/bandLow are the
	// band-blind surplus query's MinFit scratch (only with Config.Risk,
	// where a pool spans several band indexes).
	indexes map[int]*capindex.Index
	bounds  map[int]*capindex.Index
	maxCap  map[int]resources.Vector
	dirty   *capindex.DirtySet
	bandIdx []*capindex.Index
	bandLow []float64

	// Cluster-wide totals for O(1) Stats: capacity is exact (updated on
	// AddServer); committed and allocated are delta-maintained from the
	// per-server aggregate refreshes, applied in the dirty set's sorted
	// drain order so they stay deterministic.
	totCapacity  resources.Vector
	totCommitted resources.Vector
	totAllocated resources.Vector

	// deflationEvents counts how many times an existing VM's allocation
	// was reduced to admit another VM; rejections counts
	// admission-control failures. Both are read through the locked
	// accessors below — they used to be exported fields, which let
	// callers race against PlaceVM.
	deflationEvents int
	rejections      int

	// Revocation-risk state (Config.Risk): nBands is the hazard-band
	// count the (pool, band) index keys are laid out for — 1 without a
	// risk config, so the keys degenerate to the historical pure-pool
	// keys. reserve is the cluster evacuation-headroom reserve (the sum
	// of in-service servers' contributions, maintained incrementally in
	// event order so every engine configuration folds the identical
	// float sequence), and riskRejections counts admissions the
	// headroom gate refused (a subset of rejections).
	nBands         int
	reserve        resources.Vector
	riskRejections int

	// Capacity-shock state (revoke.go): how many servers are currently
	// revoked, whether the placement engine is running a relocation
	// batch (whose failures must not count as admission rejections), and
	// the reusable displaced-VM batch buffer.
	revokedCount int
	evacuating   bool
	evacDCs      []hypervisor.DomainConfig

	// cands is the reusable under-pressure candidate buffer of the
	// full-scan path; affected and reinflateErrs are the RemoveVMs batch
	// buffers. All are used only under mu, so reusing them keeps the hot
	// paths allocation-free in steady state.
	cands         candList
	affected      []*Server
	reinflateErrs []error

	// Pruned pressure-scan arenas (pressure.go), used only under mu:
	// the descending bound-index iterators (one per group index, inner
	// stacks reused across scans), the candBefore-ordered min-heap of
	// exactly-scored candidates, and the group key scratch.
	pressIters []capindex.DescIter
	pressHeap  candList
	pressKeys  []int

	// Pressure-scan observability, maintained on every placement path:
	// how many arrivals fell through to the under-pressure ranking, how
	// many servers had their exact fitness computed, and how many the
	// bound/fit pruning skipped. pressuredArrivals is invariant across
	// scan modes and shard counts; scored and pruned differ between the
	// pruned and full-scan modes by construction.
	pressuredArrivals int
	pressureScored    int
	pressurePruned    int

	// synced counts servers whose cached placement state the dirty sync
	// refreshed: a work counter for tests, which bound it exactly.
	synced int

	// Placement results of the current PlaceVM/PlaceVMs call, reused
	// across calls and touched only under mu.
	one     [1]hypervisor.DomainConfig
	results []Placement

	// Per-phase wall-time accumulators (Config.CollectTimings), written
	// under mu by the placement/reinflation paths. surplusTime and
	// pressureTime are sub-phases included within commitTime — the
	// surplus candidate queries and the under-pressure scans.
	commitTime    time.Duration
	surplusTime   time.Duration
	pressureTime  time.Duration
	reinflateTime time.Duration
}

// PhaseTimings is the per-phase wall-time breakdown a manager
// accumulates when Config.CollectTimings is set: placement (Commit:
// every PlaceVM/PlaceVMs decision) and the reinflation passes. Surplus
// and Pressure attribute the commit time further — the surplus
// candidate queries and the under-pressure scans — and are included
// within Commit, not additional to it.
type PhaseTimings struct {
	Commit    time.Duration
	Surplus   time.Duration
	Pressure  time.Duration
	Reinflate time.Duration
}

// PhaseTimings returns the accumulated phase timings (zero unless
// Config.CollectTimings is set).
func (m *Manager) PhaseTimings() PhaseTimings {
	m.mu.Lock()
	defer m.mu.Unlock()
	return PhaseTimings{
		Commit:    m.commitTime,
		Surplus:   m.surplusTime,
		Pressure:  m.pressureTime,
		Reinflate: m.reinflateTime,
	}
}

// PressureStats returns the under-pressure scan counters: how many
// placements fell through to the pressure ranking, how many servers had
// their exact fitness computed, and how many the bound/fit pruning
// skipped without scoring. Arrivals is invariant across scan modes and
// shard counts; scored and pruned differ between the pruned descent and
// the full-scan/reference modes (a full scan scores every pool server
// and prunes none).
func (m *Manager) PressureStats() (arrivals, scored, pruned int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pressuredArrivals, m.pressureScored, m.pressurePruned
}

// DeflationEvents returns how many times an existing VM's allocation
// was reduced to admit another VM.
func (m *Manager) DeflationEvents() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.deflationEvents
}

// Rejections returns the number of admission-control failures.
func (m *Manager) Rejections() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rejections
}

// RiskRejections returns how many arrivals the shock-aware admission
// gate refused to protect forecast evacuation headroom — a subset of
// Rejections. Always zero without Config.Risk.
func (m *Manager) RiskRejections() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.riskRejections
}

// HeadroomReserve returns the current evacuation-headroom reserve: the
// sum of the in-service servers' reserve contributions.
func (m *Manager) HeadroomReserve() resources.Vector {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reserve
}

// NewManager creates a manager with the given configuration.
func NewManager(cfg Config) *Manager {
	cfg.applyDefaults()
	nBands := 1
	if cfg.Risk != nil {
		nBands = cfg.Risk.MaxBands
	}
	return &Manager{
		cfg:        cfg,
		byName:     make(map[string]*Server),
		placements: make(map[string]*Server),
		indexes:    make(map[int]*capindex.Index),
		bounds:     make(map[int]*capindex.Index),
		maxCap:     make(map[int]resources.Vector),
		dirty:      capindex.NewDirtySet(),
		nBands:     nBands,
	}
}

// Close is a no-op, kept so existing callers still build: the manager
// owns no goroutines or other resources that need releasing.
func (m *Manager) Close() {}

// Config returns the manager's configuration.
func (m *Manager) Config() Config { return m.cfg }

// AddServer registers a new physical server. When partitioning is
// enabled, partition assigns its pool; pass 0..PriorityLevels-1.
func (m *Manager) AddServer(name string, capacity resources.Vector, partition int) (*Server, error) {
	return m.AddServerSpec(ServerSpec{Name: name, Capacity: capacity, Partition: partition})
}

// ServerSpec describes one server for AddServerSpec: name, capacity and
// priority pool, plus the server's revocation-risk attributes.
type ServerSpec struct {
	Name     string
	Capacity resources.Vector
	// Partition is the priority pool (0..PriorityLevels-1); ignored
	// unless Config.PartitionByPriority.
	Partition int
	// Band is the server's hazard band, 0 = lowest revocation hazard
	// (typically risk.Model.Band). Clamped to [0, Risk.MaxBands); only
	// meaningful with Config.Risk.
	Band int
	// ReserveFraction is the fraction of this server's capacity the
	// admission gate holds back as forecast evacuation headroom
	// (typically the risk model's OutageFraction). Zero contributes no
	// reserve.
	ReserveFraction float64
}

// AddServerSpec registers a new physical server with explicit risk
// attributes. AddServer is the spec with zero band and reserve.
func (m *Manager) AddServerSpec(spec ServerSpec) (*Server, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name, capacity := spec.Name, spec.Capacity
	if _, ok := m.byName[name]; ok {
		return nil, fmt.Errorf("%w: server %s", ErrExists, name)
	}
	h, err := hypervisor.NewHost(hypervisor.HostConfig{Name: name, Capacity: capacity})
	if err != nil {
		return nil, err
	}
	partition := spec.Partition
	if !m.cfg.PartitionByPriority {
		partition = -1
	}
	band := spec.Band
	if band < 0 {
		band = 0
	}
	if band >= m.nBands {
		band = m.nBands - 1
	}
	s := &Server{Host: h, Partition: partition, gidx: len(m.servers), band: band, reserveFrac: spec.ReserveFraction}
	m.servers = append(m.servers, s)
	m.byName[name] = s
	key := m.poolKey(partition, band)
	if m.indexes[key] == nil {
		m.indexes[key] = capindex.NewFit()
		m.bounds[key] = capindex.New()
	}
	m.maxCap[key] = m.maxCap[key].Max(capacity)
	m.totCapacity = m.totCapacity.Add(capacity)
	if s.reserveFrac > 0 {
		s.reserve = capacity.Scale(s.reserveFrac)
		m.reserve = m.reserve.Add(s.reserve)
	}
	// The callback only records dirtiness; the next query refreshes the
	// server's index key, cached availability and the cluster totals.
	h.OnAggregateChange(func() { m.dirty.Mark(name) })
	m.dirty.Mark(name)
	return s, nil
}

// Band returns the server's hazard band (0 without Config.Risk).
func (s *Server) Band() int { return s.band }

// poolKey maps a (priority pool, hazard band) pair onto one capacity
// index key. Without Config.Risk nBands is 1 and the key equals the
// pool — the historical keying, so risk-off managers exercise exactly
// the legacy index layout. Pools are -1 or 0..PriorityLevels-1 and
// bands 0..nBands-1, so keys never collide across pools.
func (m *Manager) poolKey(pool, band int) int {
	return pool*m.nBands + band
}

// banded reports whether dc gets the hazard-aware candidate order:
// with Config.Risk set, non-deflatable VMs and deflatable VMs at or
// above the HighPriority threshold prefer low-hazard servers.
func (m *Manager) banded(dc hypervisor.DomainConfig) bool {
	if m.cfg.Risk == nil || m.nBands <= 1 {
		return false
	}
	return !dc.Deflatable || dc.Priority >= m.cfg.Risk.HighPriority
}

// riskRejectLocked is the shock-aware admission gate: reject an arrival
// when placing it would eat into the evacuation headroom the forecast
// revocation mass reserves (cluster free capacity after the placement
// would drop below the reserve on some dimension). Evacuation batches
// bypass the gate — the reserve exists precisely so they can land —
// and so do the high-priority and non-deflatable VMs the reserve
// protects. Reads only the canonical delta-maintained totals, so the
// decision is bit-identical at any shard count.
func (m *Manager) riskRejectLocked(dc hypervisor.DomainConfig) bool {
	if m.cfg.Risk == nil || m.evacuating || m.reserve.IsZero() {
		return false
	}
	if !dc.Deflatable || dc.Priority >= m.cfg.Risk.HighPriority {
		return false
	}
	free := m.totCapacity.Sub(m.totAllocated)
	return !dc.Size.Add(m.reserve).FitsIn(free)
}

// Servers returns the managed servers.
func (m *Manager) Servers() []*Server {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Server, len(m.servers))
	copy(out, m.servers)
	return out
}

// PartitionOf maps a VM to its priority pool index.
func (m *Manager) PartitionOf(dc hypervisor.DomainConfig) int {
	if !m.cfg.PartitionByPriority {
		return -1
	}
	if !dc.Deflatable {
		return m.cfg.PriorityLevels - 1 // on-demand VMs share the highest pool
	}
	level := int(dc.Priority * float64(m.cfg.PriorityLevels))
	if level >= m.cfg.PriorityLevels {
		level = m.cfg.PriorityLevels - 1
	}
	if level < 0 {
		level = 0
	}
	return level
}

// Fitness scores a server's availability A for a demand D. Section 5.2
// writes the score as the cosine similarity A·D/(|A||D|), following the
// multi-resource packing of Tetris [19]; Tetris's alignment score keeps
// the magnitude of A (it is a projection, not a pure angle), and the
// paper's own availability vector discounts overcommitted servers
// precisely so that "this approach prefers servers with lower
// overcommitment" — which only has an effect if |A| matters. We
// therefore normalise by |D| only: fitness = A·D/|D|, the length of A's
// projection onto the demand direction.
func Fitness(demand, avail resources.Vector) float64 {
	nd := demand.Norm()
	if nd < 1e-9 {
		nd = 1e-9
	}
	return avail.Dot(demand) / nd
}

// Availability computes the paper's placement availability vector:
// A_j = Total_j - Used_j + deflatable_j/(1 + overcommit_j), where
// deflatable_j is the total resource reclaimable from deflatable VMs and
// overcommit_j discounts servers that are already squeezed. It reads the
// host's cached aggregates, so between allocation changes it is O(1).
func Availability(s *Server) resources.Vector {
	return availabilityFrom(s.Host.Capacity(), s.Host.Aggregates())
}

// availabilityFrom is the availability formula over an aggregate
// snapshot — the one definition shared by the cached per-server vector
// and the fresh reads of the reference path, so the two are bit-equal.
func availabilityFrom(total resources.Vector, agg hypervisor.Aggregates) resources.Vector {
	oc := 0.0
	if c := agg.Committed.DominantShare(total); c > 1 {
		oc = c - 1
	}
	avail := total.Sub(agg.Allocated).Add(agg.DeflatableReserve.Scale(1 / (1 + oc)))
	return avail.ClampNonNegative()
}

// fitMargin pads index lower-bound scans so a server that fits only
// thanks to resources.Vector's FitsIn epsilon is never pruned: any such
// server's free share is below the exact demand share by at most
// eps/capacity, far less than this margin.
const fitMargin = 1e-7

// errExists, errNoCapacity and errHeadroom build the placement error
// values.
func errExists(name string) error {
	return fmt.Errorf("%w: VM %s", ErrExists, name)
}

func errNoCapacity(dc hypervisor.DomainConfig) error {
	return fmt.Errorf("%w: %s (size %v)", ErrNoCapacity, dc.Name, dc.Size)
}

func errHeadroom(dc hypervisor.DomainConfig) error {
	return fmt.Errorf("%w: %w: %s (size %v)", ErrNoCapacity, ErrHeadroom, dc.Name, dc.Size)
}

// Placement is one VM's outcome in a PlaceVMs batch.
type Placement struct {
	Domain *hypervisor.Domain
	Server *Server
	Err    error
	// Initial is the domain's allocation right after its own launch,
	// before any later placement of the same batch could deflate it —
	// what a caller placing VMs one at a time would have read back
	// immediately. Zero when Err is set.
	Initial resources.Vector
	// NeedsReclaim records whether, at the moment this VM's placement
	// was decided (after every earlier placement of its batch), no
	// server could host it without deflation — the signal the
	// simulation engine counts as a reclamation attempt.
	NeedsReclaim bool
}

// PlaceVM runs the three-step placement of Section 6: pick the fittest
// server, have it compute the deflation required to make room (possibly
// deflating the newcomer itself), then perform the deflation and launch.
// It returns the running domain and its server, or ErrNoCapacity.
//
// Surplus-first: "when there is surplus capacity in the cluster, the
// cloud manager allocates these resources ... without deflating"
// (Section 5). Among servers that can host the VM with no deflation,
// tightest fit (smallest dominant free share, name-tiebroken) preserves
// large contiguous capacity for future big VMs. Under pressure, servers
// are ranked by the deflation-aware availability fitness of Section 5.2
// and residents are deflated on the best server that can absorb the
// newcomer.
func (m *Manager) PlaceVM(dc hypervisor.DomainConfig) (*hypervisor.Domain, *Server, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.one[0] = dc
	m.placeAllLocked(m.one[:1])
	out := m.results[0]
	return out.Domain, out.Server, out.Err
}

// PlaceVMs places a batch of VMs exactly as if PlaceVM had been called
// for each in order — placements, counters, errors and notifications
// are identical — under one lock acquisition, and additionally reports
// each VM's NeedsReclaim signal and launch allocation. The simulation
// engine places every arrival through it.
//
// Results are appended to out (which may be nil) and the extended slice
// is returned, so a caller owns its results — the Manager stays safe
// for concurrent use — while a loop reusing its buffer
// (`buf = m.PlaceVMs(dcs, buf[:0])`) stays allocation-free in steady
// state.
func (m *Manager) PlaceVMs(dcs []hypervisor.DomainConfig, out []Placement) []Placement {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.placeAllLocked(dcs)
	return append(out, m.results...)
}

// placeAllLocked fills m.results for dcs, one placeSequentialLocked
// decision per VM in input order.
func (m *Manager) placeAllLocked(dcs []hypervisor.DomainConfig) {
	var t0 time.Time
	if m.cfg.CollectTimings {
		t0 = time.Now()
	}
	m.results = m.results[:0]
	for _, dc := range dcs {
		m.results = append(m.results, m.placeSequentialLocked(dc))
	}
	if m.cfg.CollectTimings {
		// Commit is the whole placement time; the surplus/pressure
		// sub-timers (accumulated inside placeSequentialLocked)
		// attribute it further.
		m.commitTime += time.Since(t0)
	}
}

// placeSequentialLocked is the one-VM placement decision — the
// three-step protocol of PlaceVM.
func (m *Manager) placeSequentialLocked(dc hypervisor.DomainConfig) Placement {
	m.syncDirtyLocked()
	if m.riskRejectLocked(dc) {
		m.rejections++
		m.riskRejections++
		return Placement{Err: errHeadroom(dc)}
	}
	best := m.surplusCandidateTimedLocked(m.PartitionOf(dc), dc.Size, m.banded(dc))
	// A surplus candidate in the VM's own pool already proves some
	// server fits without deflation; only its absence needs the
	// cross-pool existence scan.
	out := Placement{NeedsReclaim: best == nil && !m.anyFitsLocked(dc.Size)}
	if _, ok := m.placements[dc.Name]; ok {
		out.Err = errExists(dc.Name)
		return out
	}
	if best != nil {
		d, deflations, err := PlaceOn(best, m.cfg, dc)
		if err == nil {
			m.deflationEvents += deflations
			m.placements[dc.Name] = best
			out.Domain, out.Server = d, best
			out.Initial = d.Allocation()
			return out
		}
	}
	if d, s, ok := m.pressureLiveLocked(dc, best); ok {
		out.Domain, out.Server = d, s
		out.Initial = d.Allocation()
		return out
	}
	if !m.evacuating { // relocation failures are not admission rejections
		m.rejections++
	}
	out.Err = errNoCapacity(dc)
	return out
}

// syncDirtyLocked refreshes cached placement state (per-server
// aggregates, free/availability vectors, index keys) for every server
// the hosts marked dirty since the last query, and folds each server's
// aggregate delta into the cluster totals. The drain is sorted, so the
// totals' float accumulation order is deterministic. Between bursts of
// churn it is a no-op.
func (m *Manager) syncDirtyLocked() {
	names := m.dirty.Drain()
	m.synced += len(names)
	for _, name := range names {
		s := m.byName[name]
		agg := s.Host.Aggregates()
		m.totCommitted = m.totCommitted.Add(agg.Committed.Sub(s.agg.Committed))
		m.totAllocated = m.totAllocated.Add(agg.Allocated.Sub(s.agg.Allocated))
		s.agg = agg
		total := s.Host.Capacity()
		s.free = total.Sub(agg.Allocated)
		s.freeShare = s.free.DominantShare(total)
		s.avail = availabilityFrom(total, agg)
		key := m.poolKey(s.Partition, s.band)
		if s.revoked {
			// A revoked server stays out of the indexes no matter who
			// marked it dirty; its cached state is still refreshed so
			// the delta fold keeps the cluster totals exact.
			m.indexes[key].Delete(name)
			m.bounds[key].Delete(name)
		} else {
			m.indexes[key].Set(name, s.gidx, s.freeShare, s.free)
			m.bounds[key].Set(name, s.gidx, boundKey(s.avail), resources.Vector{})
		}
	}
}

// reserveMargin pads the feasibility pre-filter so it can only skip
// servers the policy pass would certainly refuse: the pass accepts when
// it frees need within 1e-6, and its freed amount can differ from the
// cached reserve bound only by accumulated float round-off, orders of
// magnitude below this margin.
const reserveMargin = 1e-3

// cannotReclaim is the feasibility pre-filter shared by tryPlaceLocked
// and the bound-pruned pressure descent: it reports that s certainly
// cannot host dc even after deflating every resident to its floor plus
// the newcomer's own deflatable range. One definition — the identical
// float expressions — is what guarantees the pruned scan's fit-skip set
// equals exactly the set of servers tryPlaceLocked would refuse, so
// skipping them before scoring can never change a placement. Reads only
// cached per-server state; called with the manager's lock held.
func cannotReclaim(s *Server, dc hypervisor.DomainConfig, ncRange resources.Vector) bool {
	limit := s.agg.DeflatableReserve.Add(ncRange)
	for _, k := range resources.Kinds {
		if dc.Size.Get(k)-s.free.Get(k) > limit.Get(k)+reserveMargin {
			return true
		}
	}
	return false
}

// tryPlaceLocked attempts one under-pressure placement, recording the
// bookkeeping on success. Infeasible servers — where even deflating
// every resident to its floor plus the newcomer's own range cannot
// cover the shortfall — are skipped from the cached aggregates without
// running the policy pass, which turns an admission-control rejection
// from O(servers × policy pass) into O(servers) vector compares.
// Called with m.mu held; the cached free/reserve vectors are valid
// because failed placement attempts never mutate host state.
func (m *Manager) tryPlaceLocked(s *Server, dc hypervisor.DomainConfig, ncRange resources.Vector) (*hypervisor.Domain, *Server, bool) {
	if cannotReclaim(s, dc, ncRange) {
		return nil, nil, false
	}
	d, deflations, err := PlaceOn(s, m.cfg, dc)
	if err != nil {
		return nil, nil, false
	}
	m.deflationEvents += deflations
	m.placements[dc.Name] = s
	return d, s, true
}

// cand is one under-pressure placement candidate. idx is the server's
// manager-wide add order (Server.gidx), the final tie-break of the
// strict (band, fitness desc, idx asc) candidate order that the pruned
// descent and the full scan both realize. The strict total order means
// sorting with any algorithm yields the stable-descending ranking,
// without the reflection-based swapper sort.SliceStable costs on a
// struct slice (it showed up at ~20% of a 100k-VM run's profile).
type cand struct {
	s       *Server
	fitness float64
	idx     int
	// band is the hazard band the candidate order ranks first — the
	// server's band for hazard-aware (banded) VMs, always 0 otherwise,
	// so the legacy (fitness, idx) order is the band-0 special case.
	band int
}

type candList []cand

func (c candList) Len() int      { return len(c) }
func (c candList) Swap(i, j int) { c[i], c[j] = c[j], c[i] }

// Less delegates to candBefore so the full scan's sort order and the
// pruned descent's heap order share one definition — they must stay
// bit-identical or the two scan modes diverge.
func (c candList) Less(i, j int) bool { return candBefore(c[i], c[j]) }

// surplusCandidateTimedLocked is surplusCandidateLocked under the
// surplus sub-phase timer, so BENCH artifacts can attribute commit time
// to the surplus query vs the pressure scan. Timing never changes the
// candidate returned.
func (m *Manager) surplusCandidateTimedLocked(pool int, size resources.Vector, banded bool) *Server {
	if !m.cfg.CollectTimings {
		return m.surplusCandidateLocked(pool, size, banded)
	}
	t0 := time.Now()
	s := m.surplusCandidateLocked(pool, size, banded)
	m.surplusTime += time.Since(t0)
	return s
}

// surplusCandidateLocked returns the tightest-fit server that can host
// size without any deflation — the server with the smallest (dominant
// free share, name) among those whose free vector fits size, or the
// smallest (hazard band, free share, name) for banded VMs — or nil.
// The indexed path asks the pool's surplus indexes for their first
// fitting entry (FirstFit, ascending from the index's demand-share
// lower bound and skipping every subtree whose maximum free vector
// cannot hold size): banded VMs probe bands ascending and take the
// first band with any fit; band-blind VMs take the minimum across the
// pool's band indexes (MinFit). When the servers that pass the
// dominant-share bound but fail the fit are short on a common
// dimension, each index query touches O(log S) nodes; when they are
// short on different dimensions (CPU-full and memory-full servers
// interleaved in key order) the subtree maxima prune less and the query
// can touch up to every entry above the bound, as a walk testing each
// entry in order would. The returned ref is the server's add order, so
// no name is looked up. The reference path scans every server and
// applies the identical minimisation.
func (m *Manager) surplusCandidateLocked(pool int, size resources.Vector, banded bool) *Server {
	if m.cfg.ReferencePlacement {
		var best *Server
		bestKey := 0.0
		bestBand := 0
		for _, s := range m.servers {
			if s.revoked || (pool >= 0 && s.Partition != pool) {
				continue
			}
			total := s.Host.Capacity()
			free := total.Sub(s.Host.Aggregates().Allocated)
			if !size.FitsIn(free) {
				continue
			}
			key := free.DominantShare(total)
			b := 0
			if banded {
				b = s.band
			}
			better := best == nil || b < bestBand ||
				(b == bestBand && (key < bestKey || (key == bestKey && s.Host.Name() < best.Host.Name())))
			if better {
				best, bestKey, bestBand = s, key, b
			}
		}
		return best
	}
	if banded || m.nBands == 1 {
		// Bands ascending, first band with any fit wins: the
		// (band, free share, name) minimum. With one band this is the
		// pool's single index and the order is band-blind anyway.
		for band := 0; band < m.nBands; band++ {
			if s := m.firstFitLocked(m.poolKey(pool, band), size); s != nil {
				return s
			}
		}
		return nil
	}
	// Band-blind over several band indexes: one MinFit across them gives
	// the pool's (free share, name) minimum.
	ixs, lows := m.bandIdx[:0], m.bandLow[:0]
	for band := 0; band < m.nBands; band++ {
		key := m.poolKey(pool, band)
		ix := m.indexes[key]
		var lower float64
		if ix != nil {
			lower = m.fitLower(key, size)
		}
		ixs, lows = append(ixs, ix), append(lows, lower)
	}
	m.bandIdx, m.bandLow = ixs, lows
	ref, ok := capindex.MinFit(ixs, lows, size)
	if !ok {
		return nil
	}
	return m.servers[ref]
}

// fitLower is the surplus index scans' lower bound for key: any server
// that fits size has a free share of at least size's dominant share of
// the key's largest capacity (minus float fuzz), so everything below it
// is pruned.
func (m *Manager) fitLower(key int, size resources.Vector) float64 {
	return size.DominantShare(m.maxCap[key]) - fitMargin
}

// firstFitLocked answers one (pool, band) index's tightest-fit query:
// the fitting server with the smallest (free share, name) in that
// index, or nil (also when no server has the key).
func (m *Manager) firstFitLocked(key int, size resources.Vector) *Server {
	ix := m.indexes[key]
	if ix == nil {
		return nil
	}
	ref, ok := ix.FirstFit(m.fitLower(key, size), size)
	if !ok {
		return nil
	}
	return m.servers[ref]
}

// anyFitsLocked reports whether any server in the cluster (regardless
// of priority pool or hazard band) can host size with no deflation,
// from the live indexes. Each index answers "no" from its root's
// maximum free vector alone when that cannot hold size; a "yes" still
// takes the pruned FirstFit descent, because the root maximum mixes
// dimensions of different servers and can hold size when no single
// server does. Order-independent: it is an existence check, so the
// random map iteration is fine.
func (m *Manager) anyFitsLocked(size resources.Vector) bool {
	if m.cfg.ReferencePlacement {
		for _, s := range m.servers {
			if s.revoked {
				continue
			}
			if size.FitsIn(s.Host.Capacity().Sub(s.Host.Aggregates().Allocated)) {
				return true
			}
		}
		return false
	}
	for key, ix := range m.indexes {
		if _, ok := ix.FirstFit(m.fitLower(key, size), size); ok {
			return true
		}
	}
	return false
}

// FitsWithoutDeflation reports whether any server in the cluster
// (regardless of priority pool) can host size with no deflation. With
// the capacity indexes it is one pruned FirstFit descent per
// (pool, band) index instead of a full scan: a miss costs one
// root read per index, a hit O(log S) touches when the non-fitting
// servers share a short dimension (see surplusCandidateLocked). Batch
// placements report the same signal per VM through
// Placement.NeedsReclaim.
func (m *Manager) FitsWithoutDeflation(size resources.Vector) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.syncDirtyLocked()
	return m.anyFitsLocked(size)
}

// PlaceOn attempts placement on one server, implementing steps 2 and 3
// of the placement protocol: the server computes the deflation needed to
// host dc and, if feasible, applies it and launches the VM. It returns
// the new domain and how many resident VMs were deflated. PlaceOn is
// used both by the in-process Manager and by the per-server local
// controller daemon (cmd/noded).
func PlaceOn(s *Server, cfg Config, dc hypervisor.DomainConfig) (*hypervisor.Domain, int, error) {
	cfg.applyDefaults()
	initial, deflations, err := deflateFor(s, cfg, dc)
	if err != nil {
		return nil, deflations, err // insufficient: caller tries the next server
	}
	d, err := launch(s, cfg, dc, initial)
	return d, deflations, err
}

// newcomerName is the placeholder under which a deflatable newcomer
// joins its own admission's policy pass. The NUL prefix cannot collide
// with a real domain name.
const newcomerName = "\x00newcomer"

// deflateFor is PlaceOn's policy pass: it computes and applies the
// deflation that makes room for dc on s, and returns the newcomer's
// initial allocation. The pass reads the host's cached VM-state view
// and runs the policy through the server's scratch arena, then applies
// targets in the view's name order — so steady-state calls perform zero
// heap allocations and notification delivery is deterministic.
func deflateFor(s *Server, cfg Config, dc hypervisor.DomainConfig) (resources.Vector, int, error) {
	free := s.Host.Capacity().Sub(s.Host.Allocated())
	need := dc.Size.Sub(free).ClampNonNegative()
	if need.IsZero() {
		// Room available without any deflation.
		return dc.Size, 0, nil
	}

	// Collect deflatable VMs from the host's cached view; the newcomer
	// joins the pool if it is itself deflatable ("a new incoming VM ...
	// can thus start its execution in a deflated mode", Section 5.1.1).
	sc := &s.scratch
	sc.vms, sc.doms = sc.vms[:0], sc.doms[:0]
	sc.vms, sc.doms = s.Host.AppendDeflatableView(sc.vms, sc.doms)
	nResident := len(sc.vms)
	if dc.Deflatable {
		sc.vms = append(sc.vms, policy.VMState{
			Name:     newcomerName,
			Max:      dc.Size,
			Min:      dc.Floor(),
			Priority: dc.Priority,
			Current:  dc.Size, // joins at full size; policy shrinks it
			Load:     dc.Load,
		})
	}

	res, err := cfg.Policy.TargetsInto(sc.vms, need, &sc.ps)
	if err != nil {
		return resources.Vector{}, 0, err
	}

	// Apply deflation to resident VMs, in the view's name order.
	deflations := 0
	for i := 0; i < nResident; i++ {
		d := sc.doms[i]
		if res.Targets[i].DeflationFraction(d.Allocation()) > 1e-9 {
			deflations++
		}
		if err := applyAndNotify(s, cfg, d, res.Targets[i], nil); err != nil {
			return resources.Vector{}, deflations, err
		}
	}
	initial := dc.Size
	if dc.Deflatable {
		initial = res.Targets[nResident]
	}
	return initial, deflations, nil
}

// launch defines, starts and initially sizes the new domain.
func launch(s *Server, cfg Config, dc hypervisor.DomainConfig, initial resources.Vector) (*hypervisor.Domain, error) {
	d, err := s.Host.Define(dc)
	if err != nil {
		return nil, err
	}
	if err := d.Start(); err != nil {
		s.Host.Undefine(dc.Name)
		return nil, err
	}
	if initial != dc.Size {
		if _, err := cfg.Mechanism.Apply(d, initial); err != nil {
			d.Shutdown()
			s.Host.Undefine(dc.Name)
			return nil, err
		}
	}
	return d, nil
}

// LookupVM finds a placed VM's domain and server.
func (m *Manager) LookupVM(name string) (*hypervisor.Domain, *Server, error) {
	m.mu.Lock()
	s, ok := m.placements[name]
	m.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("%w: VM %s", ErrNotFound, name)
	}
	d, err := s.Host.Lookup(name)
	if err != nil {
		return nil, nil, err
	}
	return d, s, nil
}

// RemoveVM stops and removes a VM, then reinflates the survivors on its
// server with the freed resources (R = -R_free, Section 5.1.3).
func (m *Manager) RemoveVM(name string) error {
	return m.RemoveVMs(name)
}

// RemoveVMs removes a batch of VMs and then reinflates each affected
// server exactly once — the batched form the simulation engine uses to
// coalesce simultaneous departures, which turns k same-instant
// departures from one server into one policy pass instead of k. Servers
// reinflate in the order they are first touched by names, so the result
// is deterministic for a deterministic name order; with
// Config.ReinflateShards > 1 the per-server passes run in parallel (see
// reinflateAffected), which changes only the wall clock.
func (m *Manager) RemoveVMs(names ...string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	affected := m.affected[:0]
	seen := map[*Server]bool{}
	remove := func(name string) error {
		s, ok := m.placements[name]
		if !ok {
			return fmt.Errorf("%w: VM %s", ErrNotFound, name)
		}
		d, err := s.Host.Lookup(name)
		if err != nil {
			return err
		}
		if d.State() == hypervisor.Running {
			if err := d.Shutdown(); err != nil {
				return err
			}
		}
		if err := s.Host.Undefine(name); err != nil {
			return err
		}
		delete(m.placements, name)
		if !seen[s] {
			seen[s] = true
			affected = append(affected, s)
		}
		return nil
	}
	var firstErr error
	for _, name := range names {
		if err := remove(name); err != nil {
			// Stop removing, but fall through to reinflation: servers
			// whose VMs already left must not keep their survivors
			// deflated just because a later name in the batch was bad.
			firstErr = err
			break
		}
	}
	m.affected = affected
	if err := m.reinflateAffected(affected); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// reinflateAffected runs one reinflation pass per affected server.
// Sequentially the servers are processed in first-touched order; with
// ReinflateShards > 1 server i goes to worker i % shards, every worker
// joins a barrier, and buffered notification events are then published
// in the same first-touched server order (events within one server are
// already in name order). Per-server passes touch only their own host
// and scratch arena, so the resulting allocations — and the error
// reported, always the first in server order — are bit-for-bit
// identical at any shard count.
func (m *Manager) reinflateAffected(affected []*Server) error {
	if m.cfg.CollectTimings && len(affected) > 0 {
		t0 := time.Now()
		defer func() { m.reinflateTime += time.Since(t0) }()
	}
	shards := m.cfg.ReinflateShards
	if shards > len(affected) {
		shards = len(affected)
	}
	if shards <= 1 {
		var firstErr error
		for _, s := range affected {
			if err := Reinflate(s, m.cfg); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	errs := m.reinflateErrs[:0]
	for range affected {
		errs = append(errs, nil)
	}
	m.reinflateErrs = errs
	buffer := m.cfg.Notify != nil
	var wg sync.WaitGroup
	for w := 0; w < shards; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(affected); i += shards {
				s := affected[i]
				if buffer {
					s.scratch.events = s.scratch.events[:0]
					errs[i] = reinflate(s, m.cfg, &s.scratch.events)
				} else {
					errs[i] = reinflate(s, m.cfg, nil)
				}
			}
		}(w)
	}
	wg.Wait()
	if buffer {
		for _, s := range affected {
			for _, ev := range s.scratch.events {
				m.cfg.Notify.Publish(ev)
			}
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Reinflate redistributes free capacity to deflated VMs on s ("run the
// proportional deflation backwards", Section 5.1.3). Like PlaceOn it is
// shared between the in-process Manager and the local controller daemon.
// The host's cached Deflated count short-circuits the common case where
// nothing on the server is deflated, without walking its domains.
func Reinflate(s *Server, cfg Config) error {
	cfg.applyDefaults()
	return reinflate(s, cfg, nil)
}

// reinflate is the reinflation policy pass. Like deflateFor it consumes
// the host's cached VM-state view through the server's scratch arena
// and applies targets in name order, so steady-state calls are
// allocation-free. A non-nil events buffer receives the notification
// events instead of the bus (the parallel batch path).
func reinflate(s *Server, cfg Config, events *[]notify.Event) error {
	agg := s.Host.Aggregates()
	if agg.Deflated == 0 {
		return nil
	}
	free := s.Host.Capacity().Sub(agg.Allocated).ClampNonNegative()
	if free.IsZero() {
		return nil
	}
	sc := &s.scratch
	sc.vms, sc.doms = sc.vms[:0], sc.doms[:0]
	sc.vms, sc.doms = s.Host.AppendDeflatableView(sc.vms, sc.doms)
	if len(sc.vms) == 0 {
		return nil
	}
	res, err := cfg.Policy.TargetsInto(sc.vms, free.Scale(-1), &sc.ps)
	if err != nil && !errors.Is(err, policy.ErrInsufficient) {
		return err
	}
	for i := range sc.doms {
		if err := applyAndNotify(s, cfg, sc.doms[i], res.Targets[i], events); err != nil {
			return err
		}
	}
	return nil
}

// Stats summarises the cluster's resource state.
type Stats struct {
	Servers int
	// Revoked counts registered servers currently out of service;
	// Capacity covers only the in-service remainder.
	Revoked   int
	VMs       int
	Capacity  resources.Vector
	Committed resources.Vector
	Allocated resources.Vector
	// Overcommit is committed/capacity - 1 on the dominant dimension
	// (0 when under-committed).
	Overcommit float64
}

// Stats returns the current cluster-wide statistics. The vectors come
// from the delta-maintained totals, so the call is O(dirty servers)
// amortised — effectively O(1) between churn — instead of a walk over
// every domain in the cluster. Committed/Allocated can differ from a
// from-scratch summation by accumulated float round-off on the order of
// 1e-12 relative; the per-server aggregates themselves are always exact.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.syncDirtyLocked()
	st := Stats{
		Servers:   len(m.servers),
		Revoked:   m.revokedCount,
		VMs:       len(m.placements),
		Capacity:  m.totCapacity,
		Committed: m.totCommitted,
		Allocated: m.totAllocated,
	}
	oc := st.Committed.DominantShare(st.Capacity)
	if oc > 1 {
		st.Overcommit = oc - 1
	}
	return st
}
