package engine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
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
	// per-channel FIFO bookkeeping (substrates use FIFOClock or pipes)
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
// executor lifecycle, the transport-independent Substrate methods and the
// id checks are each a method of exactly one receiver across internal/rt
// and internal/netrt. A second declaration is a driver re-growing its own
// copy of the shell — embed the host instead (what genuinely differs per
// driver is TransmitRec and Stop, which are not listed).
func TestLiveShellIsWrittenOnce(t *testing.T) {
	shell := []string{"Do", "WaitIdle", "Start", "AfterRec", "EnqueueRec", "checkMH", "checkMSS"}
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

// TestSubstrateStackIsAssembledOnce pins core.NewEngine as the only place
// under internal/ (outside engine and faults themselves) that builds the
// fault-injector → observer → engine stack: engine.New and faults.New each
// have exactly one non-test call site. A second one is a driver assembling
// its own stack, and with it its own copy of the derived config rules.
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
// injector (internal/faults) may touch: the Substrate seam it wraps, the
// delivery-record currency that flows through it (DeliveryRec and the
// RecSink pool protocol, whose TimerRec is how plan arming obtains its
// crash/restart timer records), the channel-numbering decoder and the
// per-channel table keyed by it, the loss-reporting types, and the public
// model vocabulary. Anything else —
// routing, mobility, FIFO bookkeeping, ARQ — is engine-internal, and an
// injector reaching for it is drifting from a substrate wrapper into a
// second protocol implementation.
var faultInjectorAllowedEngineRefs = map[string]bool{
	"Substrate":     true,
	"DeliveryRec":   true,
	"RecSink":       true,
	"ChannelLayout": true,
	"ChannelKind":   true,
	"ChannelWired":  true,
	"ChannelDown":   true,
	"ChannelUp":     true,
	"ChanTable":     true,
	"NewChanTable":  true,
	"FaultStats":    true,
	"FaultReporter": true,
	"MSSID":         true,
	"MHID":          true,
	"Delay":         true,
}

// TestFaultInjectorUsesOnlyTheSubstrateSeam fails if internal/faults
// references any engine identifier outside the allowlist above: the
// injector must observe and disturb traffic purely through the Substrate
// interface and the channel-layout decoder, never by reaching into engine
// internals.
func TestFaultInjectorUsesOnlyTheSubstrateSeam(t *testing.T) {
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
				t.Errorf("%s: references engine.%s — the fault injector may only use the Substrate seam (%v)",
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
	"netrt/pipes": "relay node: lock-guarded registry of per-channel pipe goroutines, created on demand",
	"netrt/links": "relay node: lock-guarded registry of attached client connections, keyed by MH id",
	"rt/pipes":    "goroutine runtime: lock-guarded registry of per-channel pipe goroutines, created on demand",
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
// mobility.go, engine.go, or context.go contains a func literal outside the
// allowlist above. This is the record-discipline guard: the CPS delivery
// chain was replaced by value-state records, and this test keeps it
// replaced. context.go is included because timers cross the seam as
// records too: Context.After must store the caller's callback in a record,
// never wrap it in a closure of its own.
func TestDeliveryPathsBuildNoClosures(t *testing.T) {
	for _, file := range []string{"routing.go", "arq.go", "mobility.go", "engine.go", "context.go"} {
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
					t.Errorf("%s: func literal in %s — delivery paths must use pooled DeliveryRecs (newRec + TransmitRec/AfterRec/EnqueueRec), not closures; see deliveryPathClosureAllowlist",
						fset.Position(lit.Pos()), fd.Name.Name)
				}
				return true
			})
		}
	}
}

// TestSubstrateSeamIsRecordsOnly pins the whole seam: Substrate has exactly
// these six methods and none of them takes a func. Work crosses the seam
// as DeliveryRec values only, so every parked unit of work stays enumerable
// data (LiveRecs) and no binding or wrapper has a second scheduling path to
// implement. Reintroducing a closure form (After(d, fn), Enqueue(fn)) or an
// optional side interface for one fails here.
func TestSubstrateSeamIsRecordsOnly(t *testing.T) {
	want := []string{"AfterRec", "BindRecSink", "EnqueueRec", "Now", "RNG", "TransmitRec"}
	seam := reflect.TypeOf((*Substrate)(nil)).Elem()
	var got []string
	for i := 0; i < seam.NumMethod(); i++ {
		m := seam.Method(i)
		got = append(got, m.Name)
		for j := 0; j < m.Type.NumIn(); j++ {
			if m.Type.In(j).Kind() == reflect.Func {
				t.Errorf("Substrate.%s takes a func parameter (%v): schedule a DeliveryRec instead", m.Name, m.Type.In(j))
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Substrate methods = %v, want exactly %v", got, want)
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
