package engine

import "fmt"

// Of returns the engine behind reg: reg itself, or the engine a driver
// exposes (the core, rt and netrt Systems all do).
func Of(reg Registrar) (*Engine, error) {
	switch r := reg.(type) {
	case *Engine:
		return r, nil
	case interface{ Engine() *Engine }:
		return r.Engine(), nil
	}
	return nil, fmt.Errorf("registrar %T does not expose its engine", reg)
}

// AllMHs lists the hosts 0 to n-1: the participants of an algorithm that
// runs over every host.
func AllMHs(n int) []MHID {
	out := make([]MHID, n)
	for i := range out {
		out[i] = MHID(i)
	}
	return out
}

// Participants is the set of mobile hosts one algorithm runs over: L1's
// N hosts, R1's ring, a §4 group, the hosts of §5's proxies. Slot i is the
// caller's i-th host, so per-participant state is a slice indexed by slot.
type Participants struct {
	hosts []MHID
	slots []int32 // by host id: its slot, or -1
	cells []MSSID // by slot: the cell that listed it, or -1
	m     int
}

// NewParticipants checks hosts against the network behind reg: it rejects
// an empty list, a duplicate and an id outside [0, N), and records the
// cell whose local list holds each host. It registers nothing, so a
// constructor calls it (and checks its station arguments against M) before
// Register, and an error leaves nothing behind. Callers prefix the error
// with their package.
func NewParticipants(reg Registrar, hosts []MHID) (*Participants, error) {
	e, err := Of(reg)
	if err != nil {
		return nil, err
	}
	if len(hosts) == 0 {
		return nil, fmt.Errorf("no participants")
	}
	p := &Participants{
		hosts: append([]MHID(nil), hosts...),
		slots: make([]int32, e.cfg.N),
		cells: make([]MSSID, len(hosts)),
		m:     e.cfg.M,
	}
	for i := range p.slots {
		p.slots[i] = -1
	}
	for i, mh := range p.hosts {
		if int(mh) < 0 || int(mh) >= e.cfg.N {
			return nil, fmt.Errorf("participant mh%d outside [0, %d)", int(mh), e.cfg.N)
		}
		if p.slots[mh] >= 0 {
			return nil, fmt.Errorf("duplicate participant mh%d", int(mh))
		}
		p.slots[mh], p.cells[i] = int32(i), -1
		if at := e.mh[mh].at; e.mss[at].local.has(mh) {
			p.cells[i] = at
		}
	}
	return p, nil
}

// Len is the number of participants.
func (p *Participants) Len() int { return len(p.hosts) }

// M is the station count of the network the set was built on, for a
// constructor's checks of its station arguments before it registers.
func (p *Participants) M() int { return p.m }

// Hosts lists the participants in slot order; the slice must not be
// modified.
func (p *Participants) Hosts() []MHID { return p.hosts }

// Host is the participant in slot.
func (p *Participants) Host(slot int) MHID { return p.hosts[slot] }

// Slot is mh's slot, and false when mh is not a participant.
func (p *Participants) Slot(mh MHID) (int, bool) {
	if int(mh) < 0 || int(mh) >= len(p.slots) || p.slots[mh] < 0 {
		return 0, false
	}
	return int(p.slots[mh]), true
}

// Has reports whether mh is a participant.
func (p *Participants) Has(mh MHID) bool {
	_, ok := p.Slot(mh)
	return ok
}

// Cell is the cell whose local list held the participant in slot when the
// set was built (the old cell while a leave or disconnect is on its way
// up), and false when none did.
func (p *Participants) Cell(slot int) (MSSID, bool) {
	return p.cells[slot], p.cells[slot] >= 0
}
