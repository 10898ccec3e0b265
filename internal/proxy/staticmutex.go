package proxy

import (
	"fmt"

	"mobiledist/internal/logical"
	"mobiledist/internal/sim"
)

// Grant is the output a StaticMutex process sends to its mobile host when
// its request acquires the critical section.
type Grant struct {
	Proc int
}

// Release is the output sent when the critical section is relinquished on
// the host's behalf.
type Release struct {
	Proc int
}

// RequestInput is the input a mobile host submits to request the critical
// section.
type RequestInput struct{}

// smHoldDone is the timer message a process sends itself when it enters
// the critical section with request TS: the hold is over, so it releases.
type smHoldDone struct {
	TS logical.Timestamp
}

// MutexOptions configure a StaticMutex.
type MutexOptions struct {
	// Hold is how long the critical section is occupied per grant.
	Hold sim.Time
	// OnEnter and OnExit fire at the proxy tier when the critical section
	// is acquired and released — the actual exclusion points (the Grant and
	// Release outputs to the mobile host are asynchronous notifications).
	OnEnter func(p int)
	OnExit  func(p int)
}

// StaticMutex is Lamport's mutual exclusion written as a StaticAlgorithm —
// completely oblivious to mobility. Hosted by the proxy Runtime under
// ScopeHome it becomes an L2-like algorithm automatically; under ScopeLocal
// the proxies migrate with their hosts. This is the paper's Section-5
// demonstration: the same algorithm text serves static and mobile systems.
type StaticMutex struct {
	procs int
	opts  MutexOptions

	env     Env
	engines []*logical.MutexEngine
	grants  int64
}

var _ StaticAlgorithm = (*StaticMutex)(nil)

// NewStaticMutex builds a mutex over procs processes.
func NewStaticMutex(procs int, opts MutexOptions) (*StaticMutex, error) {
	if procs < 1 {
		return nil, fmt.Errorf("proxy: static mutex needs at least one process")
	}
	return &StaticMutex{procs: procs, opts: opts}, nil
}

// Name implements StaticAlgorithm.
func (s *StaticMutex) Name() string { return "static-mutex" }

// Grants reports how many critical-section entries have been granted.
func (s *StaticMutex) Grants() int64 { return s.grants }

// Input implements StaticAlgorithm.
func (s *StaticMutex) Input(env Env, p int, input any) {
	if _, ok := input.(RequestInput); !ok {
		panic(fmt.Sprintf("proxy: static mutex got unexpected input %T", input))
	}
	s.init(env)
	s.engines[p].Request(0)
}

// Handle implements StaticAlgorithm.
func (s *StaticMutex) Handle(env Env, p, from int, msg any) {
	switch m := msg.(type) {
	case logical.MutexMsg:
		s.init(env)
		s.engines[p].Handle(m)
	case smHoldDone:
		if s.opts.OnExit != nil {
			s.opts.OnExit(p)
		}
		if err := s.engines[p].Release(m.TS); err != nil {
			panic(fmt.Sprintf("proxy: static mutex release: %v", err))
		}
		s.env.Output(p, Release{Proc: p})
	default:
		panic(fmt.Sprintf("proxy: static mutex got unexpected message %T", msg))
	}
}

// init lazily builds the per-process engines once the environment is known.
func (s *StaticMutex) init(env Env) {
	if s.engines != nil {
		return
	}
	if env.Procs() != s.procs {
		panic(fmt.Sprintf("proxy: static mutex built for %d procs, hosted with %d", s.procs, env.Procs()))
	}
	s.env = env
	s.engines = make([]*logical.MutexEngine, s.procs)
	for i := 0; i < s.procs; i++ {
		p := i
		s.engines[i] = logical.NewMutexEngine(p, s.procs,
			func(to int, m logical.MutexMsg) { env.Send(p, to, m) },
			func(tag int64, ts logical.Timestamp) { s.granted(p, ts) },
		)
	}
}

func (s *StaticMutex) granted(p int, ts logical.Timestamp) {
	s.grants++
	if s.opts.OnEnter != nil {
		s.opts.OnEnter(p)
	}
	s.env.Output(p, Grant{Proc: p})
	s.env.After(s.opts.Hold, p, smHoldDone{TS: ts})
}
