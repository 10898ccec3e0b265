package nemesis

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"mobiledist/internal/sim"
)

// The UDP nemesis is the datagram sibling of the TCP proxy: where the
// stream proxy disturbs byte quanta, this one disturbs whole datagrams —
// drop, duplicate, reorder (a held, late re-send), and per-packet delay —
// the loss modes internal/dgram's replay window and selective retransmit
// exist to absorb.
//
// Determinism: the fate of a datagram is a pure function of
// (UDPPlan.Seed, flow index, direction, packet index) — not of timing, not
// of payload, not of what happened to other packets. Every datagram gets a
// fresh splitmix-seeded draw chain keyed by those four values, with a fixed
// draw order (drop, duplicate, reorder, delay), so two runs pushing the
// same packet sequence through the same plan produce byte-identical
// disturbance logs. Disturbances() returns the log in canonical
// (flow, dir, index) order to make that comparison trivial.

// UDPPlan declares per-datagram disturbances. The zero value disturbs
// nothing.
type UDPPlan struct {
	// Seed keys every fate draw.
	Seed uint64 `json:"seed"`
	// Drop is the per-datagram drop probability.
	Drop float64 `json:"drop,omitempty"`
	// Duplicate is the per-datagram probability of forwarding twice — the
	// second copy departs immediately and may overtake a delayed original.
	Duplicate float64 `json:"duplicate,omitempty"`
	// Reorder is the per-datagram probability of holding the datagram for
	// ReorderDelayUS before forwarding, letting later traffic overtake it.
	Reorder float64 `json:"reorder,omitempty"`
	// ReorderDelayUS is how long a reordered datagram is held (0: 2000µs).
	ReorderDelayUS int64 `json:"reorder_delay_us,omitempty"`
	// DelayMinUS/DelayMaxUS bound the per-datagram injected latency in
	// microseconds (both 0: none).
	DelayMinUS int64 `json:"delay_min_us,omitempty"`
	DelayMaxUS int64 `json:"delay_max_us,omitempty"`
}

// Validate checks the plan's parameters.
func (p UDPPlan) Validate() error {
	for _, pr := range []struct {
		name string
		v    float64
	}{{"drop", p.Drop}, {"duplicate", p.Duplicate}, {"reorder", p.Reorder}} {
		if pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("nemesis: %s probability %v out of [0,1]", pr.name, pr.v)
		}
	}
	if p.ReorderDelayUS < 0 {
		return fmt.Errorf("nemesis: negative reorder delay %d", p.ReorderDelayUS)
	}
	if p.DelayMinUS < 0 || p.DelayMaxUS < p.DelayMinUS {
		return fmt.Errorf("nemesis: bad delay range [%d, %d]", p.DelayMinUS, p.DelayMaxUS)
	}
	return nil
}

func (p UDPPlan) reorderDelay() time.Duration {
	if p.ReorderDelayUS <= 0 {
		return 2 * time.Millisecond
	}
	return time.Duration(p.ReorderDelayUS) * time.Microsecond
}

// udpFate is one datagram's drawn fate.
type udpFate struct {
	drop, dup, reorder bool
	delayUS            int64
}

// fate draws the disturbance for one datagram. Pure in (Seed, flow, dir,
// index): the chain is re-seeded per packet, so the fate never depends on
// processing order or on other packets.
func (p UDPPlan) fate(flow int, dir Direction, index uint64) udpFate {
	rng := sim.NewRNG(streamKey(p.Seed, flow, dir) + (index+1)*0x9E3779B97F4A7C15)
	var f udpFate
	f.drop = p.Drop > 0 && rng.Float64() < p.Drop
	f.dup = p.Duplicate > 0 && rng.Float64() < p.Duplicate
	f.reorder = p.Reorder > 0 && rng.Float64() < p.Reorder
	if p.DelayMaxUS > 0 {
		f.delayUS = p.DelayMinUS
		if span := p.DelayMaxUS - p.DelayMinUS; span > 0 {
			f.delayUS += rng.Int63n(span + 1)
		}
	}
	return f
}

// UDPDisturbance is one logged datagram fate — the determinism witness.
type UDPDisturbance struct {
	// Flow is the client flow index (order of first datagram seen); Dir the
	// direction; Index the datagram's per-(flow, dir) arrival index.
	Flow  int
	Dir   Direction
	Index uint64
	// Kind is "drop", "duplicate", "reorder", or "latency".
	Kind string
	// Amount is kind-specific: dropped/duplicated bytes, or microseconds
	// for reorder/latency.
	Amount int64
}

// String formats the disturbance for test diffs.
func (d UDPDisturbance) String() string {
	return fmt.Sprintf("flow%d/%s p%d %s %d", d.Flow, d.Dir, d.Index, d.Kind, d.Amount)
}

// udpFlow is one client's relay state: a dedicated upstream socket toward
// the target (so replies route back to the right client) and per-direction
// packet counters.
type udpFlow struct {
	idx    int
	client net.UDPAddr
	up     *net.UDPConn
	upIdx  uint64 // client→target datagrams seen (proxy-side counter)
}

// UDPProxy fronts one UDP target: datagrams from any client are relayed
// with the plan's fates applied per packet, replies are relayed back.
type UDPProxy struct {
	plan   UDPPlan
	target *net.UDPAddr
	pc     *net.UDPConn

	mu     sync.Mutex
	flows  map[string]*udpFlow
	log    []UDPDisturbance
	closed bool

	done chan struct{}
	wg   sync.WaitGroup
}

// NewUDP starts a datagram proxy on 127.0.0.1:0 relaying to target.
func NewUDP(target string, plan UDPPlan) (*UDPProxy, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	taddr, err := net.ResolveUDPAddr("udp", target)
	if err != nil {
		return nil, err
	}
	laddr, _ := net.ResolveUDPAddr("udp", "127.0.0.1:0")
	pc, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, err
	}
	p := &UDPProxy{
		plan:   plan,
		target: taddr,
		pc:     pc,
		flows:  make(map[string]*udpFlow),
		done:   make(chan struct{}),
	}
	p.wg.Add(1)
	go p.readLoop()
	return p, nil
}

// Addr returns the proxy's listen address — what the disturbed side dials
// instead of the target.
func (p *UDPProxy) Addr() string { return p.pc.LocalAddr().String() }

// Disturbances returns the log in canonical (flow, dir, index, kind) order,
// so two runs of the same plan over the same packet sequence compare
// byte-for-byte.
func (p *UDPProxy) Disturbances() []UDPDisturbance {
	p.mu.Lock()
	out := make([]UDPDisturbance, len(p.log))
	copy(out, p.log)
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Flow != b.Flow {
			return a.Flow < b.Flow
		}
		if a.Dir != b.Dir {
			return a.Dir < b.Dir
		}
		if a.Index != b.Index {
			return a.Index < b.Index
		}
		return a.Kind < b.Kind
	})
	return out
}

// Stop closes the proxy socket and every flow's upstream socket, then waits
// for all relay goroutines (including pending delayed sends).
func (p *UDPProxy) Stop() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	flows := make([]*udpFlow, 0, len(p.flows))
	for _, f := range p.flows {
		flows = append(flows, f)
	}
	p.mu.Unlock()
	close(p.done)
	p.pc.Close()
	for _, f := range flows {
		f.up.Close()
	}
	p.wg.Wait()
}

func (p *UDPProxy) record(d UDPDisturbance) {
	p.mu.Lock()
	p.log = append(p.log, d)
	p.mu.Unlock()
}

// flowFor finds or creates the relay flow for a client address, starting
// its downstream pump. Returns nil once closed (or if the upstream socket
// cannot bind).
func (p *UDPProxy) flowFor(raddr *net.UDPAddr) *udpFlow {
	key := raddr.String()
	p.mu.Lock()
	if f, ok := p.flows[key]; ok {
		p.mu.Unlock()
		return f
	}
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	idx := len(p.flows)
	p.mu.Unlock()

	up, err := net.DialUDP("udp", nil, p.target)
	if err != nil {
		return nil
	}
	f := &udpFlow{idx: idx, client: *raddr, up: up}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		up.Close()
		return nil
	}
	p.flows[key] = f
	p.mu.Unlock()
	p.wg.Add(1)
	go p.downLoop(f)
	return f
}

// readLoop pumps client→target datagrams, assigning each flow its index in
// first-seen order and each datagram its per-flow arrival index.
func (p *UDPProxy) readLoop() {
	defer p.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		n, raddr, err := p.pc.ReadFromUDP(buf)
		if err != nil {
			return
		}
		f := p.flowFor(raddr)
		if f == nil {
			continue
		}
		idx := f.upIdx
		f.upIdx++ // readLoop is the only writer
		p.apply(f.idx, DirUp, idx, buf[:n], func(pkt []byte) {
			_, _ = f.up.Write(pkt)
		})
	}
}

// downLoop pumps target→client datagrams for one flow.
func (p *UDPProxy) downLoop(f *udpFlow) {
	defer p.wg.Done()
	buf := make([]byte, 64*1024)
	var idx uint64
	for {
		n, err := f.up.Read(buf)
		if err != nil {
			return
		}
		i := idx
		idx++
		client := f.client
		p.apply(f.idx, DirDown, i, buf[:n], func(pkt []byte) {
			_, _ = p.pc.WriteToUDP(pkt, &client)
		})
	}
}

// apply executes one datagram's fate: a drop forwards nothing; reorder and
// latency delay the original without blocking later datagrams (that is what
// makes it a reordering); a duplicate departs immediately and may overtake
// its delayed original.
func (p *UDPProxy) apply(flow int, dir Direction, index uint64, pkt []byte, send func([]byte)) {
	f := p.plan.fate(flow, dir, index)
	if f.drop {
		p.record(UDPDisturbance{Flow: flow, Dir: dir, Index: index, Kind: "drop", Amount: int64(len(pkt))})
		return
	}
	var delay time.Duration
	if f.delayUS > 0 {
		p.record(UDPDisturbance{Flow: flow, Dir: dir, Index: index, Kind: "latency", Amount: f.delayUS})
		delay += time.Duration(f.delayUS) * time.Microsecond
	}
	if f.reorder {
		hold := p.plan.reorderDelay()
		p.record(UDPDisturbance{Flow: flow, Dir: dir, Index: index, Kind: "reorder", Amount: int64(hold / time.Microsecond)})
		delay += hold
	}
	cp := append([]byte(nil), pkt...)
	if delay > 0 {
		p.sendLater(delay, func() { send(cp) })
	} else {
		send(cp)
	}
	if f.dup {
		p.record(UDPDisturbance{Flow: flow, Dir: dir, Index: index, Kind: "duplicate", Amount: int64(len(pkt))})
		send(cp)
	}
}

// sendLater schedules a delayed forward, cancelled by Stop.
func (p *UDPProxy) sendLater(d time.Duration, send func()) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			send()
		case <-p.done:
		}
	}()
}
