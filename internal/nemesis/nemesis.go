// Package nemesis is a seeded socket-layer disturbance proxy: a TCP
// relay that injects latency, caps bandwidth, stalls byte streams, resets
// connections mid-stream, and holds one direction of traffic (a one-way
// partition), all driven by a declarative Plan.
//
// It is the wire-level sibling of internal/faults: where the fault injector
// disturbs the model's substrate seam (whole transmissions, in virtual
// time), the nemesis disturbs the TCP byte streams underneath the network
// runtime — torn frames, half-open connections, asymmetric reachability —
// the failure modes internal/netrt's crash-recovery machinery exists to
// absorb. The crash conformance suite routes a loopback cluster's dialled
// addresses through nemesis proxies (netrt.Config.WrapAddr) and asserts the
// model invariants still hold.
//
// Determinism: every disturbance decision is a pure function of
// (Plan.Seed, connection index, direction, quantum index). Each direction
// of each proxied connection carries its own splitmix64 stream, keyed from
// the seed by connection and direction, and draws a fixed number of
// variates per quantum (latency, stall, reset — in that order), so the
// decision at quantum q never depends on how the stream was chunked into
// Read calls. Two runs with the same plan and the same byte traffic
// produce the same disturbance sequence; the Disturbances log is the
// witness, exactly as the fault injector's trace is at the model layer.
// (Wall-clock effects — how long a sleep takes — are of course not part of
// the contract; which disturbance fires at which byte offset is.)
package nemesis

import (
	"fmt"
	"net"
	"sync"
	"time"

	"mobiledist/internal/sim"
)

// defaultQuantum is the decision granularity in bytes: one disturbance
// decision per quantum of stream data.
const defaultQuantum = 1024

// Direction identifies one half of a proxied connection.
type Direction uint8

const (
	// DirUp is client→target (toward the listener the proxy fronts).
	DirUp Direction = iota
	// DirDown is target→client.
	DirDown
)

// String names the direction.
func (d Direction) String() string {
	if d == DirDown {
		return "down"
	}
	return "up"
}

// Window is a one-way partition: while the direction's quantum index lies
// in [FromQ, UntilQ), bytes are buffered instead of forwarded. The window
// lifts as traffic advances quanta (the reader keeps consuming, so the
// index keeps moving); held bytes flush with the first forwarded write
// after the window, or at end of stream.
type Window struct {
	Dir    Direction `json:"dir"`
	FromQ  uint64    `json:"from_q"`
	UntilQ uint64    `json:"until_q"`
}

// Plan declares the disturbances. The zero value disturbs nothing.
type Plan struct {
	// Seed keys every decision stream. Same seed, same traffic → same
	// disturbance sequence.
	Seed uint64 `json:"seed"`
	// Quantum is the decision granularity in bytes (0: 1024).
	Quantum int `json:"quantum,omitempty"`
	// LatencyMinUS/LatencyMaxUS bound the per-quantum injected delay in
	// microseconds (both 0: none).
	LatencyMinUS int64 `json:"latency_min_us,omitempty"`
	LatencyMaxUS int64 `json:"latency_max_us,omitempty"`
	// BandwidthBPS caps each direction's forwarding rate in bytes/second
	// (0: unlimited).
	BandwidthBPS int64 `json:"bandwidth_bps,omitempty"`
	// StallProb is the per-quantum probability of a byte-level stall of
	// StallUS microseconds: the stream freezes mid-frame, then resumes.
	StallProb float64 `json:"stall_prob,omitempty"`
	StallUS   int64   `json:"stall_us,omitempty"`
	// ResetProb is the per-quantum probability of a mid-stream reset: both
	// sides of the proxied connection close immediately.
	ResetProb float64 `json:"reset_prob,omitempty"`
	// OneWay lists one-way partition windows in quantum index space.
	OneWay []Window `json:"one_way,omitempty"`
}

// Validate checks the plan's parameters.
func (p Plan) Validate() error {
	if p.Quantum < 0 {
		return fmt.Errorf("nemesis: negative quantum %d", p.Quantum)
	}
	if p.LatencyMinUS < 0 || p.LatencyMaxUS < p.LatencyMinUS {
		return fmt.Errorf("nemesis: bad latency range [%d, %d]", p.LatencyMinUS, p.LatencyMaxUS)
	}
	if p.StallProb < 0 || p.StallProb > 1 {
		return fmt.Errorf("nemesis: stall probability %v out of [0,1]", p.StallProb)
	}
	if p.ResetProb < 0 || p.ResetProb > 1 {
		return fmt.Errorf("nemesis: reset probability %v out of [0,1]", p.ResetProb)
	}
	if p.StallUS < 0 || p.BandwidthBPS < 0 {
		return fmt.Errorf("nemesis: negative stall or bandwidth")
	}
	for _, w := range p.OneWay {
		if w.UntilQ < w.FromQ {
			return fmt.Errorf("nemesis: one-way window [%d, %d) inverted", w.FromQ, w.UntilQ)
		}
	}
	return nil
}

func (p Plan) quantum() int {
	if p.Quantum <= 0 {
		return defaultQuantum
	}
	return p.Quantum
}

// holds reports whether dir's quantum q falls in a one-way window.
func (p Plan) holds(dir Direction, q uint64) bool {
	for _, w := range p.OneWay {
		if w.Dir == dir && w.FromQ <= q && q < w.UntilQ {
			return true
		}
	}
	return false
}

// Disturbance is one logged decision — the determinism witness.
type Disturbance struct {
	// Conn is the proxied connection's accept index; Dir the stream half.
	Conn int
	Dir  Direction
	// Quantum is the decision's quantum index.
	Quantum uint64
	// Kind is "latency", "stall", "reset", "hold", or "release".
	Kind string
	// Amount is kind-specific: microseconds for latency/stall, held or
	// released bytes for hold/release, 0 for reset.
	Amount int64
}

// String formats the disturbance for test diffs.
func (d Disturbance) String() string {
	return fmt.Sprintf("conn%d/%s q%d %s %d", d.Conn, d.Dir, d.Quantum, d.Kind, d.Amount)
}

// decision is the fixed draw triple for one quantum.
type decision struct {
	latencyUS int64
	stall     bool
	reset     bool
}

// streamKey derives the per-(connection, direction) RNG seed — the
// golden-ratio spread keeps nearby connection indices from correlating.
func streamKey(seed uint64, conn int, dir Direction) uint64 {
	return seed ^ (uint64(conn)*2+uint64(dir)+1)*0x9E3779B97F4A7C15
}

// Proxy is one nemesis instance fronting one target address. Every
// accepted connection is relayed to the target with the plan's
// disturbances applied independently per direction.
type Proxy struct {
	plan   Plan
	target string
	ln     net.Listener
	wg     sync.WaitGroup

	mu     sync.Mutex
	conns  int
	open   map[net.Conn]struct{}
	log    []Disturbance
	closed bool
}

// New starts a proxy on 127.0.0.1:0 relaying to target.
func New(target string, plan Plan) (*Proxy, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{plan: plan, target: target, ln: ln, open: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address — what the disturbed side dials
// instead of the target.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Disturbances returns a copy of the disturbance log so far.
func (p *Proxy) Disturbances() []Disturbance {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Disturbance, len(p.log))
	copy(out, p.log)
	return out
}

// Stop closes the listener and every proxied connection, then waits for
// all relay goroutines.
func (p *Proxy) Stop() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	conns := make([]net.Conn, 0, len(p.open))
	for c := range p.open {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	p.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	p.wg.Wait()
}

func (p *Proxy) record(d Disturbance) {
	p.mu.Lock()
	p.log = append(p.log, d)
	p.mu.Unlock()
}

// track registers a conn for Stop teardown, refusing after close.
func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.open[c] = struct{}{}
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.open, c)
	p.mu.Unlock()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		in, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		idx := p.conns
		p.conns++
		p.mu.Unlock()
		p.wg.Add(1)
		go p.serve(in, idx)
	}
}

// serve relays one accepted connection: dial the target, then pump each
// direction through its own disturbance pipeline. Either pipeline's reset
// (or either endpoint closing) tears both down.
func (p *Proxy) serve(in net.Conn, idx int) {
	defer p.wg.Done()
	out, err := net.Dial("tcp", p.target)
	if err != nil {
		in.Close()
		return
	}
	if !p.track(in) || !p.track(out) {
		in.Close()
		out.Close()
		p.untrack(in)
		return
	}
	closeBoth := func() {
		in.Close()
		out.Close()
	}
	var pumps sync.WaitGroup
	pumps.Add(2)
	go func() {
		defer pumps.Done()
		p.pump(in, out, idx, DirUp, closeBoth)
	}()
	go func() {
		defer pumps.Done()
		p.pump(out, in, idx, DirDown, closeBoth)
	}()
	pumps.Wait()
	closeBoth()
	p.untrack(in)
	p.untrack(out)
}

// pump relays one direction, applying the plan quantum by quantum. The
// decision for quantum q is drawn when its first byte arrives (an idle
// stream is never disturbed), with a fixed draw order so the sequence is
// independent of Read chunking.
func (p *Proxy) pump(src, dst net.Conn, idx int, dir Direction, closeBoth func()) {
	rng := sim.NewRNG(streamKey(p.plan.Seed, idx, dir))
	draw := func() decision {
		var d decision
		if p.plan.LatencyMaxUS > 0 {
			d.latencyUS = p.plan.LatencyMinUS
			if span := p.plan.LatencyMaxUS - p.plan.LatencyMinUS; span > 0 {
				d.latencyUS += rng.Int63n(span + 1)
			}
		}
		d.stall = p.plan.StallProb > 0 && rng.Float64() < p.plan.StallProb
		d.reset = p.plan.ResetProb > 0 && rng.Float64() < p.plan.ResetProb
		return d
	}

	quantum := p.plan.quantum()
	buf := make([]byte, quantum)
	var (
		q       uint64 // current quantum index
		offset  int    // bytes consumed within the current quantum
		decided bool
		held    []byte // bytes buffered by a one-way window
	)
	flushHeld := func() bool {
		if len(held) == 0 {
			return true
		}
		p.record(Disturbance{Conn: idx, Dir: dir, Quantum: q, Kind: "release", Amount: int64(len(held))})
		_, err := dst.Write(held)
		held = nil
		return err == nil
	}
	for {
		n, err := src.Read(buf[:quantum-offset])
		if n > 0 {
			if !decided {
				decided = true
				d := draw()
				if d.reset {
					p.record(Disturbance{Conn: idx, Dir: dir, Quantum: q, Kind: "reset"})
					closeBoth()
					return
				}
				if d.latencyUS > 0 {
					p.record(Disturbance{Conn: idx, Dir: dir, Quantum: q, Kind: "latency", Amount: d.latencyUS})
					time.Sleep(time.Duration(d.latencyUS) * time.Microsecond)
				}
				if d.stall && p.plan.StallUS > 0 {
					p.record(Disturbance{Conn: idx, Dir: dir, Quantum: q, Kind: "stall", Amount: p.plan.StallUS})
					time.Sleep(time.Duration(p.plan.StallUS) * time.Microsecond)
				}
			}
			chunk := buf[:n]
			if p.plan.holds(dir, q) {
				held = append(held, chunk...)
				p.record(Disturbance{Conn: idx, Dir: dir, Quantum: q, Kind: "hold", Amount: int64(n)})
			} else {
				if !flushHeld() {
					closeBoth()
					return
				}
				if p.plan.BandwidthBPS > 0 {
					time.Sleep(time.Duration(int64(n) * int64(time.Second) / p.plan.BandwidthBPS))
				}
				if _, werr := dst.Write(chunk); werr != nil {
					closeBoth()
					return
				}
			}
			offset += n
			if offset == quantum {
				q++
				offset = 0
				decided = false
			}
		}
		if err != nil {
			// End of stream: held bytes still flush (the partition does not
			// destroy data, it delays it), then the write side closes.
			flushHeld()
			closeBoth()
			return
		}
	}
}
