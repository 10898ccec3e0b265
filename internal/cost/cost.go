// Package cost implements the paper's message cost model (Section 2) and
// the closed-form analytic cost expressions from Sections 3 and 4.
//
// Every transmission in the two-tier network is charged to one of three
// channel kinds — fixed (MSS↔MSS), wireless (MH↔local MSS), or search
// (locating a MH and forwarding to its current MSS) — and one accounting
// category that distinguishes algorithm traffic from model-level control
// plumbing, mirroring how the paper counts only algorithm messages.
package cost

import (
	"fmt"
	"strings"
)

// Kind identifies the channel a charge was incurred on.
type Kind int

// Channel kinds.
const (
	KindFixed Kind = iota + 1
	KindWireless
	KindSearch
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindFixed:
		return "fixed"
	case KindWireless:
		return "wireless"
	case KindSearch:
		return "search"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Category classifies why a charge was incurred.
type Category int8

// Accounting categories.
const (
	// CatAlgorithm is traffic belonging to the distributed algorithm under
	// study — what the paper's cost expressions count.
	CatAlgorithm Category = iota + 1
	// CatControl is model-level mobility plumbing: leave/join/handoff,
	// disconnect bookkeeping. The paper's system model performs this traffic
	// but excludes it from algorithm cost expressions.
	CatControl
	// CatLocation is group-location maintenance traffic (Section 4):
	// location updates in always-inform, LV(G) maintenance in location view.
	CatLocation
	// CatStale is re-forwarding after a destination moved while a message
	// was in flight — the case the paper's footnote 2 disregards. Keeping it
	// separate lets measured numbers align with the analytic ones while
	// still reporting how large the disregarded term is.
	CatStale
)

// String returns the category name.
func (c Category) String() string {
	switch c {
	case CatAlgorithm:
		return "algorithm"
	case CatControl:
		return "control"
	case CatLocation:
		return "location"
	case CatStale:
		return "stale"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Categories lists all accounting categories in display order.
func Categories() []Category {
	return []Category{CatAlgorithm, CatControl, CatLocation, CatStale}
}

// Kinds lists all channel kinds in display order.
func Kinds() []Kind {
	return []Kind{KindFixed, KindWireless, KindSearch}
}

// Params holds the per-message cost constants of the paper's model.
// The paper requires Csearch >= Cfixed.
type Params struct {
	Fixed    float64 // Cfixed: point-to-point message between two MSSs
	Wireless float64 // Cwireless: MH <-> local MSS over the wireless channel
	Search   float64 // Csearch: locate a MH and forward to its current MSS
}

// DefaultParams returns the cost constants used throughout the experiment
// suite: wireless an order of magnitude costlier than fixed (the paper's
// bandwidth observation) and search several fixed hops.
func DefaultParams() Params {
	return Params{Fixed: 1, Wireless: 10, Search: 5}
}

// Validate reports whether the parameters satisfy the model's constraints.
func (p Params) Validate() error {
	if p.Fixed <= 0 || p.Wireless <= 0 || p.Search <= 0 {
		return fmt.Errorf("cost: non-positive parameter: %+v", p)
	}
	if p.Search < p.Fixed {
		return fmt.Errorf("cost: Csearch (%v) must be >= Cfixed (%v)", p.Search, p.Fixed)
	}
	return nil
}

// Of returns the unit cost of one message on the given kind of channel.
func (p Params) Of(k Kind) float64 {
	switch k {
	case KindFixed:
		return p.Fixed
	case KindWireless:
		return p.Wireless
	case KindSearch:
		return p.Search
	default:
		panic(fmt.Sprintf("cost: unknown kind %d", int(k)))
	}
}

// Meter accumulates message counts by (category, kind) plus per-MH energy
// counters. Counters are flat arrays indexed by the small dense Category and
// Kind enums, and per-MH counters are slices indexed by MH id, so charging a
// message on the simulation hot path is an array increment — no hashing, no
// allocation, regardless of host count. The zero value is ready to use;
// NewMeter is retained for callers that prefer a constructor.
type Meter struct {
	counts [CatStale + 1][KindSearch + 1]int64

	// Per-MH wireless activity: transmissions and receptions both consume
	// battery power (Section 1). Indexed by the non-negative int id supplied
	// by the caller (the core package uses MH ids); grown on demand.
	txByMH []int64
	rxByMH []int64
}

// NewMeter returns an empty meter.
func NewMeter() *Meter { return &Meter{} }

// NewMeterSized returns an empty meter with per-MH energy counters
// pre-sized for ids 0..mhs-1, so large systems never grow them mid-run.
func NewMeterSized(mhs int) *Meter {
	return &Meter{txByMH: make([]int64, mhs), rxByMH: make([]int64, mhs)}
}

// grow extends s so index mh is addressable; the caller has checked
// mh >= len(s). Capacity doubles so id-ordered growth stays amortized O(1).
func grow(s []int64, mh int) []int64 {
	if mh < cap(s) {
		return s[:mh+1] // make zeroed the backing array up to cap
	}
	ns := make([]int64, mh+1, max(mh+1, 2*cap(s)))
	copy(ns, s)
	return ns
}

// Charge records one message of the given category and kind.
func (m *Meter) Charge(cat Category, kind Kind) {
	m.counts[cat][kind]++
}

// ChargeN records n messages at once.
func (m *Meter) ChargeN(cat Category, kind Kind, n int64) {
	m.counts[cat][kind] += n
}

// WirelessTx records that MH mh transmitted one wireless message.
func (m *Meter) WirelessTx(mh int) {
	if mh >= len(m.txByMH) {
		m.txByMH = grow(m.txByMH, mh)
	}
	m.txByMH[mh]++
}

// WirelessRx records that MH mh received one wireless message.
func (m *Meter) WirelessRx(mh int) {
	if mh >= len(m.rxByMH) {
		m.rxByMH = grow(m.rxByMH, mh)
	}
	m.rxByMH[mh]++
}

// Count returns the number of messages recorded for (cat, kind).
func (m *Meter) Count(cat Category, kind Kind) int64 {
	if cat < 0 || int(cat) >= len(m.counts) || kind < 0 || int(kind) >= len(m.counts[0]) {
		return 0
	}
	return m.counts[cat][kind]
}

// KindTotal returns the number of messages of the given kind across all
// categories.
func (m *Meter) KindTotal(kind Kind) int64 {
	var total int64
	for _, cat := range Categories() {
		total += m.counts[cat][kind]
	}
	return total
}

// CategoryCost returns the total cost of one category under params p.
func (m *Meter) CategoryCost(cat Category, p Params) float64 {
	var total float64
	for _, kind := range Kinds() {
		if n := m.counts[cat][kind]; n != 0 {
			total += float64(n) * p.Of(kind)
		}
	}
	return total
}

// TotalCost returns the cost across all categories under params p.
func (m *Meter) TotalCost(p Params) float64 {
	var total float64
	for _, cat := range Categories() {
		total += m.CategoryCost(cat, p)
	}
	return total
}

// Energy returns the wireless activity (transmissions, receptions) of MH mh.
func (m *Meter) Energy(mh int) (tx, rx int64) {
	if mh >= 0 && mh < len(m.txByMH) {
		tx = m.txByMH[mh]
	}
	if mh >= 0 && mh < len(m.rxByMH) {
		rx = m.rxByMH[mh]
	}
	return tx, rx
}

// TotalEnergy returns the summed wireless transmissions and receptions over
// all MHs — the paper's battery-consumption proxy.
func (m *Meter) TotalEnergy() (tx, rx int64) {
	for _, n := range m.txByMH {
		tx += n
	}
	for _, n := range m.rxByMH {
		rx += n
	}
	return tx, rx
}

// MaxEnergy returns the largest per-MH wireless activity (tx+rx) and the id
// of the MH that incurred it; ties go to the smallest id. It returns
// (-1, 0) when no activity was recorded.
func (m *Meter) MaxEnergy() (mh int, total int64) {
	mh = -1
	n := max(len(m.txByMH), len(m.rxByMH))
	for id := 0; id < n; id++ {
		tx, rx := m.Energy(id)
		if sum := tx + rx; sum != 0 && sum > total {
			mh, total = id, sum
		}
	}
	return mh, total
}

// Reset clears all counters but keeps the per-MH capacity.
func (m *Meter) Reset() {
	m.counts = [CatStale + 1][KindSearch + 1]int64{}
	for i := range m.txByMH {
		m.txByMH[i] = 0
	}
	for i := range m.rxByMH {
		m.rxByMH[i] = 0
	}
}

// Snapshot returns a copy of the meter, so callers can diff before/after.
func (m *Meter) Snapshot() *Meter {
	s := NewMeter()
	s.counts = m.counts
	s.txByMH = append([]int64(nil), m.txByMH...)
	s.rxByMH = append([]int64(nil), m.rxByMH...)
	return s
}

// Diff returns a new meter holding m minus old, counter by counter.
func (m *Meter) Diff(old *Meter) *Meter {
	d := NewMeter()
	for _, cat := range Categories() {
		for _, kind := range Kinds() {
			d.counts[cat][kind] = m.counts[cat][kind] - old.counts[cat][kind]
		}
	}
	n := max(len(m.txByMH), len(m.rxByMH))
	for id := 0; id < n; id++ {
		tx, rx := m.Energy(id)
		otx, orx := old.Energy(id)
		if delta := tx - otx; delta != 0 {
			if id >= len(d.txByMH) {
				d.txByMH = grow(d.txByMH, id)
			}
			d.txByMH[id] = delta
		}
		if delta := rx - orx; delta != 0 {
			if id >= len(d.rxByMH) {
				d.rxByMH = grow(d.rxByMH, id)
			}
			d.rxByMH[id] = delta
		}
	}
	return d
}

// Report renders a human-readable summary under params p.
func (m *Meter) Report(p Params) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %10s %10s %10s %12s\n", "category", "fixed", "wireless", "search", "cost")
	for _, cat := range Categories() {
		byKind := &m.counts[cat]
		if byKind[KindFixed] == 0 && byKind[KindWireless] == 0 && byKind[KindSearch] == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-10s %10d %10d %10d %12.1f\n",
			cat, byKind[KindFixed], byKind[KindWireless], byKind[KindSearch], m.CategoryCost(cat, p))
	}
	tx, rx := m.TotalEnergy()
	fmt.Fprintf(&b, "total cost %.1f; wireless energy: %d tx + %d rx\n", m.TotalCost(p), tx, rx)
	return b.String()
}
