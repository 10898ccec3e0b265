package engine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// The substrate adapters (internal/core, internal/rt, internal/netrt) and
// the datagram session layer (internal/dgram) must stay thin: the protocol
// lives here, once. This guard fails if an adapter grows a local
// re-declaration of engine-owned logic — the exact duplication this package
// was extracted to eliminate. dgram is scanned too because its retransmit
// and reassembly machinery sits one temptation away from re-growing the
// engine's routing/ARQ surface. If this test fires, move the logic into the
// engine (or rename honestly, if it truly is substrate plumbing).
var forbiddenAdapterDecls = map[string]string{
	// routing
	"routeToMH":                "MH routing with search/retry/chase is engine-owned",
	"wirelessDown":             "downlink delivery with prefix semantics is engine-owned",
	"deliverToMH":              "per-pair FIFO reorder delivery is engine-owned",
	"chargeSearch":             "search accounting is engine-owned",
	"reclassifyWastedWireless": "stale-transmission reclassification is engine-owned",
	"sendFixed":                "wired sends are engine-owned",
	"broadcastFixed":           "wired broadcast is engine-owned",
	"sendToMH":                 "routed sends are engine-owned",
	"sendToLocalMH":            "local wireless sends are engine-owned",
	"sendFromMH":               "uplink sends (and their deferred replay) are engine-owned",
	"sendMHToMH":               "MH-to-MH send pipeline is engine-owned",
	"sendMHViaMSS":             "via-MSS MH sends are engine-owned",
	"sendToMHVia":              "directory-forwarded sends are engine-owned",
	"forwardViaMSS":            "directory forwarding is engine-owned",
	// mobility
	"completeJoin":        "the join half of the mobility protocol is engine-owned",
	"runReconnectHandoff": "the reconnect handoff is engine-owned",
	"fireWaiters":         "in-transit waiter queues are engine-owned",
	"notifyJoin":          "mobility observer dispatch is engine-owned",
	"notifyLeave":         "mobility observer dispatch is engine-owned",
	"notifyDisconnect":    "mobility observer dispatch is engine-owned",
	"notifyFailure":       "delivery-failure dispatch is engine-owned",
	// dispatch and state
	"dispatchMSS":      "handler dispatch is engine-owned",
	"dispatchMH":       "handler dispatch is engine-owned",
	"localMHs":         "cell membership state is engine-owned",
	"mssState":         "MSS registry state is engine-owned",
	"mhState":          "MH status machine state is engine-owned",
	"pairKey":          "per-pair FIFO state is engine-owned",
	"pairState":        "per-pair FIFO state is engine-owned",
	"deferredDelivery": "per-pair FIFO state is engine-owned",
	"sortedMHs":        "sorted-slice membership is engine-owned",
	"routeOpts":        "routing context is engine-owned",
	"waiters":          "in-transit waiter queues are engine-owned",
	// per-channel FIFO bookkeeping (substrates use FIFOClock)
	"fifoWired": "FIFO arrival clamping lives in engine.FIFOClock",
	"fifoDown":  "FIFO arrival clamping lives in engine.FIFOClock",
	"fifoUp":    "FIFO arrival clamping lives in engine.FIFOClock",
	"lastWired": "FIFO high-water marks live in engine.FIFOClock",
	"lastDown":  "FIFO high-water marks live in engine.FIFOClock",
	"lastUp":    "FIFO high-water marks live in engine.FIFOClock",
	// configuration (drivers embed engine.Config; core.NewEngine applies the
	// derived rules)
	"engineConfig": "the model parameters are declared once, in engine.Config, which the driver configs embed",
	// contexts (both substrates must hand out the engine's algContext)
	"simContext": "core must hand out the engine's Context implementation",
	"rtContext":  "rt must hand out the engine's Context implementation",
}

func TestSubstrateAdaptersDoNotRedeclareEngineLogic(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{"../core", "../rt", "../netrt", "../dgram"} {
		for _, f := range parseNonTest(t, fset, dir) {
			checkDecls(t, fset, f)
		}
	}
}

// parseNonTest walks root and parses every non-test Go file outside the
// directories named in skip.
func parseNonTest(t *testing.T, fset *token.FileSet, root string, skip ...string) []*ast.File {
	t.Helper()
	var files []*ast.File
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			for _, s := range skip {
				if d.Name() == s {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if filepath.Ext(path) != ".go" || isTestFile(path) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatalf("no Go sources found under %s", root)
	}
	return files
}

// TestLiveShellIsWrittenOnce pins the live driver shell to rt.Host: the
// executor lifecycle, the due queue's timer path and the id checks are each
// a method of exactly one receiver across internal/rt and internal/netrt. A
// second declaration is a driver re-growing its own copy of the shell —
// embed the host instead (what genuinely differs per driver is its
// transmit and Stop, which are not listed).
func TestLiveShellIsWrittenOnce(t *testing.T) {
	shell := []string{"Do", "WaitIdle", "Start", "afterRec", "drain", "schedule", "checkMH", "checkMSS"}
	declared := make(map[string][]string)
	fset := token.NewFileSet()
	for _, dir := range []string{"../rt", "../netrt"} {
		for _, f := range parseNonTest(t, fset, dir) {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
					declared[fd.Name.Name] = append(declared[fd.Name.Name], fset.Position(fd.Pos()).String())
				}
			}
		}
	}
	for _, name := range shell {
		if at := declared[name]; len(at) != 1 {
			t.Errorf("method %s is declared %d times across rt and netrt, want exactly once (on rt.Host): %v", name, len(at), at)
		}
	}
}

// wallWaitAllowlist names the functions in internal/rt and internal/netrt
// that may wait on the wall clock (time.NewTimer, AfterFunc, After, Sleep),
// each with the reason it is not a second due queue.
var wallWaitAllowlist = map[string]string{
	"NewHost":     "rt.Host's due queue: its one reusable timer",
	"dueLoop":     "a relay process's due queue: its one reusable timer",
	"WaitIdle":    "a caller's deadline, not a due time",
	"waitDrained": "a caller's deadline, not a due time",
	"waitReady":   "a caller's deadline, not a due time",
	"redial":      "reconnect backoff, not a due time",
	"RestartNode": "loopback harness: rebind retry pacing",
}

// heapIndexAllowlist names the non-test files under internal/sim,
// internal/rt and internal/netrt that may do heap index math outside
// sim.Queue's methods, each with the reason.
var heapIndexAllowlist = map[string]string{
	"sharded.go": "deleted by ROADMAP item 10",
}

// TestDueWaitIsWrittenOnce is TestLiveShellIsWrittenOnce for the event
// queue: across internal/sim, internal/rt and internal/netrt, heap index
// math (a parent (i-1)/k or (i-1)>>k, a child k*i+1 or i<<k+1) appears only
// in sim.Queue's methods (and heapIndexAllowlist's files), no type is named
// DueQueue, nothing imports container/heap, and only the functions in
// wallWaitAllowlist wait on the wall clock. A kernel, driver or relay that
// grows its own heap or its own timer-wait loop fails here: push onto a
// sim.Queue instead.
func TestDueWaitIsWrittenOnce(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{"../sim", "../rt", "../netrt"} {
		for _, f := range parseNonTest(t, fset, dir) {
			file := filepath.Base(fset.Position(f.Pos()).Filename)
			for _, imp := range f.Imports {
				if imp.Path.Value == `"container/heap"` {
					t.Errorf("%s: imports container/heap — the one event queue is sim.Queue", fset.Position(imp.Pos()))
				}
			}
			for _, decl := range f.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
					for _, spec := range gd.Specs {
						if ts := spec.(*ast.TypeSpec); ts.Name.Name == "DueQueue" {
							t.Errorf("%s: type DueQueue — the one event queue is sim.Queue", fset.Position(ts.Pos()))
						}
					}
				}
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				queue := dir == "../sim" && fd.Recv != nil && recvTypeName(fd.Recv.List[0].Type) == "Queue"
				ast.Inspect(fd, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.BinaryExpr:
						if isHeapIndex(x) && !queue && heapIndexAllowlist[file] == "" {
							t.Errorf("%s: heap index math in %s — the one event queue is sim.Queue", fset.Position(x.Pos()), fd.Name.Name)
						}
					case *ast.CallExpr:
						sel, ok := x.Fun.(*ast.SelectorExpr)
						if !ok {
							return true
						}
						pkg, ok := sel.X.(*ast.Ident)
						if !ok || pkg.Name != "time" || pkg.Obj != nil {
							return true
						}
						switch sel.Sel.Name {
						case "NewTimer", "AfterFunc", "After", "Sleep":
							if wallWaitAllowlist[fd.Name.Name] == "" {
								t.Errorf("%s: time.%s in %s — a due time waits on a sim.Queue (or name the function in wallWaitAllowlist with the reason it is something else)",
									fset.Position(x.Pos()), sel.Sel.Name, fd.Name.Name)
							}
						}
					}
					return true
				})
			}
		}
	}
}

// recvTypeName is the type name of a method receiver, generic or not.
func recvTypeName(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// isHeapIndex reports whether e is a heap's parent index, (x - 1) / k or
// (x - 1) >> k, or its first child's, k * x + 1, x * k + 1 or x << k + 1,
// for a literal k.
func isHeapIndex(e *ast.BinaryExpr) bool {
	switch e.Op {
	case token.QUO, token.SHR:
		paren, ok := e.X.(*ast.ParenExpr)
		if !ok || !isLit(e.Y, "") {
			return false
		}
		sub, ok := paren.X.(*ast.BinaryExpr)
		return ok && sub.Op == token.SUB && isLit(sub.Y, "1")
	case token.ADD:
		scaled, ok := e.X.(*ast.BinaryExpr)
		if !ok || !isLit(e.Y, "1") {
			return false
		}
		switch scaled.Op {
		case token.MUL:
			return isLit(scaled.X, "") || isLit(scaled.Y, "")
		case token.SHL:
			return isLit(scaled.Y, "")
		}
	}
	return false
}

// isLit reports whether e is a basic literal, with value v unless v is "".
func isLit(e ast.Expr, v string) bool {
	l, ok := e.(*ast.BasicLit)
	return ok && (v == "" || l.Value == v)
}

// TestSubstrateStackIsAssembledOnce pins core.NewEngine as the only place
// under internal/ (outside engine and faults themselves) that builds an
// engine and its fault model: engine.New and faults.New each have exactly
// one non-test call site. A second one is a driver assembling its own
// stack, and with it its own copy of the derived config rules.
func TestSubstrateStackIsAssembledOnce(t *testing.T) {
	calls := map[string][]string{"engine.New": nil, "faults.New": nil}
	fset := token.NewFileSet()
	for _, f := range parseNonTest(t, fset, "..", "engine", "faults") {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Obj == nil {
				name := pkg.Name + "." + sel.Sel.Name
				if _, tracked := calls[name]; tracked {
					calls[name] = append(calls[name], fset.Position(call.Pos()).String())
				}
			}
			return true
		})
	}
	for name, at := range calls {
		if len(at) != 1 {
			t.Errorf("%s( has %d non-test call sites under internal/, want exactly one (core.NewEngine): %v", name, len(at), at)
		}
	}
}

// faultInjectorAllowedEngineRefs is the complete engine surface the fault
// model (internal/faults) may touch: PlanClock, the interface the engine
// hands it (the clock and the one way to schedule a plan's instants), the
// channel-numbering decoder and the per-channel table keyed by it, the
// loss-reporting type, and the public model vocabulary. It implements
// engine.Weather without naming it, and it never sees a record: no
// Substrate, RecSink or DeliveryRec. Anything else — routing, mobility,
// FIFO bookkeeping, ARQ, the record pool, the observers a crash reaches —
// is engine-internal, and a fault model reaching for it is drifting from a
// decision source into a second protocol implementation.
var faultInjectorAllowedEngineRefs = map[string]bool{
	"PlanClock":     true,
	"ChannelLayout": true,
	"ChannelKind":   true,
	"ChannelWired":  true,
	"ChannelDown":   true,
	"ChannelUp":     true,
	"ChanTable":     true,
	"NewChanTable":  true,
	"FaultStats":    true,
	"MSSID":         true,
	"MHID":          true,
	"Delay":         true,
}

// TestFaultModelUsesOnlyItsEngineInterface fails if internal/faults
// references any engine identifier outside the allowlist above: the fault
// model must decide from the channel layout and the clock it is handed,
// never by reaching into engine internals or handling records.
func TestFaultModelUsesOnlyItsEngineInterface(t *testing.T) {
	fset := token.NewFileSet()
	for _, f := range parseNonTest(t, fset, "../faults") {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok || pkg.Name != "engine" || pkg.Obj != nil {
				return true
			}
			if !faultInjectorAllowedEngineRefs[sel.Sel.Name] {
				t.Errorf("%s: references engine.%s — the fault model may only use its engine interface (%v)",
					fset.Position(sel.Pos()), sel.Sel.Name, sortedAllowedRefs())
			}
			return true
		})
	}
}

// perChannelMapAllowlist names the int-keyed maps (package/field) that may
// exist beside engine.ChanTable, each with the reason it is not per-channel
// model state.
var perChannelMapAllowlist = map[string]string{
	"netrt/links": "relay node: lock-guarded registry of attached client connections, keyed by MH id",
}

// TestPerChannelStateLivesInChanTable fails if the engine, the fault
// injector or a substrate driver grows per-channel state of its own: a make
// sized by the channel count (ChannelLayout.Count grows as M*N — 1.6 GB per
// 16-byte entry at sim-route's M=10^3/N=10^5) or an int-keyed map (the
// sparse half of a dense/sparse pair). State per channel goes in a
// ChanTable, which is written once and sized O(M+N).
func TestPerChannelStateLivesInChanTable(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{"engine", "faults", "core", "rt", "netrt"} {
		for _, f := range parseNonTest(t, fset, filepath.Join("..", dir)) {
			allowed := func(name ast.Expr) bool {
				id, ok := name.(*ast.Ident)
				return ok && perChannelMapAllowlist[dir+"/"+id.Name] != ""
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.Field:
					for _, name := range x.Names {
						if allowed(name) {
							return false
						}
					}
				case *ast.KeyValueExpr:
					if allowed(x.Key) {
						return false
					}
				case *ast.MapType:
					if key, ok := x.Key.(*ast.Ident); ok && (key.Name == "int" || key.Name == "int32") {
						t.Errorf("%s: map[%s] — per-channel state belongs in an engine.ChanTable (or name the map in perChannelMapAllowlist with the reason it is something else)",
							fset.Position(x.Pos()), key.Name)
					}
				case *ast.CallExpr:
					if fn, ok := x.Fun.(*ast.Ident); !ok || fn.Name != "make" {
						return true
					}
					for _, arg := range x.Args[1:] {
						ast.Inspect(arg, func(m ast.Node) bool {
							if sel, ok := m.(*ast.SelectorExpr); ok && sel.Sel.Name == "Count" {
								t.Errorf("%s: make sized by a channel count — per-channel state belongs in an engine.ChanTable, which allocates O(M+N)",
									fset.Position(x.Pos()))
							}
							return true
						})
					}
				}
				return true
			})
		}
	}
}

// deliveryPathClosureAllowlist names the top-level functions in the
// delivery-path files that may still build closures: build-time plumbing
// that runs once per system, never per message. Everything else in these
// files must express deferred work as a pooled DeliveryRec interpreted by
// runRec — a closure on a routing, ARQ, or mobility path is a per-message
// heap allocation creeping back in, exactly what the record refactor
// removed. To add a legitimate control-path closure, name its enclosing
// function here with a reason.
var deliveryPathClosureAllowlist = map[string]string{
	"New": "engine construction: default-placement closure, built once",
}

// TestDeliveryPathsBuildNoClosures fails if routing.go, arq.go,
// mobility.go, engine.go, context.go or record.go contains a func literal
// outside the allowlist above. This is the record-discipline guard: the CPS
// delivery chain was replaced by value-state records, and this test keeps
// it replaced. context.go and record.go are included because timers cross
// the seam as records too: Context.After puts the algorithm's message in a
// record, and runRec hands it to HandleTimer, with no closure in between.
func TestDeliveryPathsBuildNoClosures(t *testing.T) {
	for _, file := range []string{"routing.go", "arq.go", "mobility.go", "engine.go", "context.go", "record.go"} {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatalf("parse %s: %v", file, err)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if _, allowed := deliveryPathClosureAllowlist[fd.Name.Name]; allowed {
				continue
			}
			ast.Inspect(fd, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					t.Errorf("%s: func literal in %s — delivery paths must use pooled DeliveryRecs (newRec + TransmitRec/AfterRec), not closures; see deliveryPathClosureAllowlist",
						fset.Position(lit.Pos()), fd.Name.Name)
				}
				return true
			})
		}
	}
}

// TestSubstrateSeamIsRecordsOnly pins the whole seam, both directions:
// Substrate and RecSink have exactly these methods and none of them takes a
// func, DeliveryRec has no func-typed field and exports only Daemon, and no
// method of Context takes a func. Work crosses the seam as DeliveryRec
// values only, and every record is plain data, so every parked unit of
// work stays enumerable
// (LiveRecs) and no binding has a second scheduling path to implement:
// "now" is AfterRec(0, rec), a fault plan's crash and restart instants are
// CrashRec records, and an algorithm timer is a message the algorithm sends
// itself. The seam carries transport only: RecSink is StepRec alone, so
// nothing on the far side frees, clones or makes records — the fault model
// is a Weather the engine reads, not a wrapper around the transport.
// Reintroducing a closure form (After(d, fn), Enqueue(fn), TimerRec(fn), a
// callback field in the record), a second deferral method, a pool method on
// the sink or an optional side interface fails here.
func TestSubstrateSeamIsRecordsOnly(t *testing.T) {
	for _, seam := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeOf((*Substrate)(nil)).Elem(), []string{"AfterRec", "BindRecSink", "Now", "RNG", "TransmitRec"}},
		{reflect.TypeOf((*RecSink)(nil)).Elem(), []string{"StepRec"}},
	} {
		var got []string
		for i := 0; i < seam.typ.NumMethod(); i++ {
			m := seam.typ.Method(i)
			got = append(got, m.Name)
			for j := 0; j < m.Type.NumIn(); j++ {
				if m.Type.In(j).Kind() == reflect.Func {
					t.Errorf("%s.%s takes a func parameter (%v): schedule a DeliveryRec instead", seam.typ.Name(), m.Name, m.Type.In(j))
				}
			}
		}
		if !reflect.DeepEqual(got, seam.want) {
			t.Errorf("%s methods = %v, want exactly %v", seam.typ.Name(), got, seam.want)
		}
	}
	rec := reflect.TypeOf(DeliveryRec{})
	for i := 0; i < rec.NumField(); i++ {
		if f := rec.Field(i); f.Type.Kind() == reflect.Func {
			t.Errorf("DeliveryRec.%s is a func (%v): a record must be plain data", f.Name, f.Type)
		}
	}
	if m := reflect.TypeOf((*DeliveryRec)(nil)); m.NumMethod() != 1 || m.Method(0).Name != "Daemon" {
		t.Errorf("*DeliveryRec has %d exported methods, want only Daemon: a record is opaque beyond the seam", m.NumMethod())
	}
	ctx := reflect.TypeOf((*Context)(nil)).Elem()
	for i := 0; i < ctx.NumMethod(); i++ {
		m := ctx.Method(i)
		for j := 0; j < m.Type.NumIn(); j++ {
			if m.Type.In(j).Kind() == reflect.Func {
				t.Errorf("Context.%s takes a func parameter (%v): a timer is a message (After(d, msg))", m.Name, m.Type.In(j))
			}
		}
	}
}

func sortedAllowedRefs() []string {
	out := make([]string, 0, len(faultInjectorAllowedEngineRefs))
	for name := range faultInjectorAllowedEngineRefs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func isTestFile(path string) bool {
	base := filepath.Base(path)
	return len(base) > len("_test.go") && base[len(base)-len("_test.go"):] == "_test.go"
}

func checkDecls(t *testing.T, fset *token.FileSet, f *ast.File) {
	t.Helper()
	flag := func(name string, pos token.Pos) {
		if reason, bad := forbiddenAdapterDecls[name]; bad {
			t.Errorf("%s: declares %q — %s; delete the duplicate and call the engine",
				fset.Position(pos), name, reason)
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			flag(d.Name.Name, d.Name.Pos())
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					flag(sp.Name.Name, sp.Name.Pos())
					if st, ok := sp.Type.(*ast.StructType); ok {
						for _, field := range st.Fields.List {
							for _, fn := range field.Names {
								flag(fn.Name, fn.Pos())
							}
						}
					}
				case *ast.ValueSpec:
					for _, vn := range sp.Names {
						flag(vn.Name, vn.Pos())
					}
				}
			}
		}
	}
}

// TestCallbacksAreOneMethod pins the engine's callback idiom: every
// interface in types.go named *Observer or *Handler declares exactly one
// method, so an algorithm implements only the callbacks it acts on, and no
// non-test method under internal/ or cmd/ with one of those names has an
// empty body. A callback that does nothing is a capability the algorithm
// does not have: leave the method out instead.
func TestCallbacksAreOneMethod(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "types.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	callbacks := map[string]string{} // method name → interface
	ast.Inspect(f, func(n ast.Node) bool {
		spec, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		iface, ok := spec.Type.(*ast.InterfaceType)
		name := spec.Name.Name
		if !ok || !(strings.HasSuffix(name, "Observer") || strings.HasSuffix(name, "Handler")) {
			return false
		}
		if n := len(iface.Methods.List); n != 1 {
			t.Errorf("%s declares %d methods, want 1: split it into one-method interfaces", name, n)
		}
		for _, m := range iface.Methods.List {
			for _, id := range m.Names {
				callbacks[id.Name] = name
			}
		}
		return false
	})
	if len(callbacks) == 0 {
		t.Fatal("found no *Observer or *Handler interface in types.go")
	}
	for _, root := range []string{"..", "../../cmd"} {
		for _, f := range parseNonTest(t, fset, root) {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Recv == nil || fn.Body == nil || len(fn.Body.List) > 0 {
					continue
				}
				if iface, ok := callbacks[fn.Name.Name]; ok {
					t.Errorf("%s: %s.%s has an empty body; drop it and let the type not implement engine.%s",
						fset.Position(fn.Pos()), recvTypeName(fn.Recv.List[0].Type), fn.Name.Name, iface)
				}
			}
		}
	}
}

// algorithmPackages are the packages whose constructors register an
// algorithm on a Registrar.
var algorithmPackages = []string{"../mutex/lamport", "../mutex/ring", "../group", "../multicast", "../proxy", "../dtn"}

// TestConstructorsValidateBeforeRegister pins the constructor shape of the
// algorithm packages: a New* function checks everything it can reject
// before it calls Register, so no return after that call carries an error
// (a rejected constructor must not leave a half-built algorithm receiving
// the network's callbacks), and one that takes a host list builds its
// membership with NewParticipants rather than a loop of its own.
func TestConstructorsValidateBeforeRegister(t *testing.T) {
	fset := token.NewFileSet()
	constructors := 0
	for _, dir := range algorithmPackages {
		for _, f := range parseNonTest(t, fset, dir) {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv != nil || fn.Body == nil || !strings.HasPrefix(fn.Name.Name, "New") {
					continue
				}
				register, participants := token.NoPos, false
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
						switch sel.Sel.Name {
						case "Register":
							if register == token.NoPos {
								register = call.End()
							}
						case "NewParticipants":
							participants = true
						}
					}
					return true
				})
				if register == token.NoPos {
					continue
				}
				constructors++
				if takesHostList(fn) && !participants {
					t.Errorf("%s: %s takes a host list but does not build it with NewParticipants",
						fset.Position(fn.Pos()), fn.Name.Name)
				}
				if !returnsError(fn) {
					continue
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					switch s := n.(type) {
					case *ast.FuncLit:
						return false // a closure's returns are not the constructor's
					case *ast.ReturnStmt:
						if s.Pos() > register && len(s.Results) > 0 && !isNil(s.Results[len(s.Results)-1]) {
							t.Errorf("%s: %s returns an error after Register; check it before registering",
								fset.Position(s.Pos()), fn.Name.Name)
						}
					}
					return true
				})
			}
		}
	}
	if constructors < 9 {
		t.Fatalf("found %d registering constructors, want at least 9: the guard is not seeing the packages", constructors)
	}
}

// TestMutexHoldAndRoundAreShared pins what internal/mutex took out of the
// mutual-exclusion algorithms: lamport and ring enter and leave the
// critical section only through mutex.Hold, so no non-test file there
// notes a critical-section entry or exit itself, and an owed return is
// mutex.Round's, so none declares an OnJoin method.
func TestMutexHoldAndRoundAreShared(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	for _, dir := range []string{"../mutex/lamport", "../mutex/ring"} {
		for _, f := range parseNonTest(t, fset, dir) {
			files++
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Recv != nil && n.Name.Name == "OnJoin" {
						t.Errorf("%s: OnJoin declared; a return owed across a disconnection is mutex.Round's",
							fset.Position(n.Pos()))
					}
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "NoteCSEnter" || sel.Sel.Name == "NoteCSExit") {
						t.Errorf("%s: %s called; the critical section is entered and left through mutex.Hold",
							fset.Position(n.Pos()), sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
	if files < 5 {
		t.Fatalf("scanned %d files, want at least 5: the guard is not seeing the packages", files)
	}
}

// takesHostList reports whether fn has a []core.MHID or []engine.MHID
// parameter.
func takesHostList(fn *ast.FuncDecl) bool {
	for _, p := range fn.Type.Params.List {
		if at, ok := p.Type.(*ast.ArrayType); ok && at.Len == nil {
			if sel, ok := at.Elt.(*ast.SelectorExpr); ok && sel.Sel.Name == "MHID" {
				return true
			}
		}
	}
	return false
}

// returnsError reports whether fn's last result is an error.
func returnsError(fn *ast.FuncDecl) bool {
	res := fn.Type.Results
	if res == nil || len(res.List) == 0 {
		return false
	}
	id, ok := res.List[len(res.List)-1].Type.(*ast.Ident)
	return ok && id.Name == "error"
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}
