package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"

	"github.com/minos-ddp/minos/third_party/golang.org/x/tools/go/analysis"
	"github.com/minos-ddp/minos/third_party/golang.org/x/tools/go/analysis/passes/ctrlflow"
	"github.com/minos-ddp/minos/third_party/golang.org/x/tools/go/analysis/passes/inspect"
	"github.com/minos-ddp/minos/third_party/golang.org/x/tools/go/ast/inspector"
	"github.com/minos-ddp/minos/third_party/golang.org/x/tools/go/cfg"
)

// PersistOrder encodes the paper's persist-before-ack rule for the live
// node (Fig 2 L39-40, Fig 3): under Strict and Synchronous persistency a
// follower's durable acknowledgment ([ACK] / [ACK_P]) tells the
// coordinator the update is in NVM, so constructing one must be
// dominated by the durable-write call. Concretely: in internal/node, on
// every control-flow path from function entry to a statement that builds
// a message with Kind KindAck or KindAckP, a durability event must
// already have happened.
//
// Durability evidence is typed and interprocedural, not a name list:
//
//   - The seeds are the durability primitives themselves, matched by
//     receiver type and package: nvm.Pipeline.Persist / PersistMany
//     (blocking group-commit waits), nvm.Log.LocallyDurable (the local
//     durability predicate spin loops poll), ddp.Meta.PersistencyDone
//     and ddp.WriteTxn.AckedP (the protocol's persistency-ack
//     predicates).
//
//   - Any function whose body calls a seed — or another evidence
//     provider — is itself an evidence provider. The derivation crosses
//     package boundaries as an object fact, so a helper in one package
//     that flushes the pipeline carries its evidence to callers in
//     another.
//
//   - Continuations follow the same scheme: nvm.Pipeline.Enqueue's
//     func() parameter runs strictly after the log append, so a closure
//     passed there (or to any function that forwards its own func
//     parameter into that position, discovered transitively and
//     exported as a fact) is born with durability established. A named
//     function passed as a continuation is likewise exempt from the
//     check.
//
//   - The pipeline's ack-carrying enqueues — nvm.Pipeline methods with
//     a ddp.MsgKind parameter (EnqueueAck, DeferAck, EnqueueSetAck) —
//     queue the kind with the update, and the pipeline's OnAck hook
//     sends the acknowledgment strictly after the group commit appends
//     it: a kind passed in that position is payload, not an
//     acknowledgment constructed at the call.
//
// Consistency-only acknowledgments (KindAckC) are exempt: they
// legitimately precede the persist.
//
// A loop whose body performs the durable write counts as evidence even
// on its zero-iteration exit: "persist everything buffered" over an
// empty buffer is vacuously durable. For the same reason a function
// counts as an evidence provider if any statement in it persists — the
// early returns of such helpers are their own empty-input cases.
var PersistOrder = &analysis.Analyzer{
	Name: "persistorder",
	Doc: "require Strict/Synchronous acknowledgments (KindAck/KindAckP) to be " +
		"preceded by the durable write on every control-flow path " +
		"(persist-before-ack)",
	Requires:   []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer},
	ResultType: reflect.TypeOf((*DirectiveUse)(nil)),
	FactTypes:  []analysis.Fact{(*durableEvidence)(nil), (*durableContinuations)(nil)},
	Run:        runPersistOrder,
}

// durableEvidence marks a function whose execution establishes
// durability of the pending update (it transitively reaches a blocking
// persist or a persistency-predicate spin).
type durableEvidence struct{}

func (*durableEvidence) AFact() {}

func (*durableEvidence) String() string { return "durable-evidence" }

// durableContinuations marks a function that forwards the listed
// parameter indices into a persist-continuation position: closures
// passed there run after the log append.
type durableContinuations struct {
	Params []int
}

func (*durableContinuations) AFact() {}

func (d *durableContinuations) String() string { return "durable-continuation params" }

// evidenceSeeds matches the durability primitives by package path
// element, receiver type name, and method name.
var evidenceSeeds = map[[3]string]bool{
	{"nvm", "Pipeline", "Persist"}:     true,
	{"nvm", "Pipeline", "PersistMany"}: true,
	{"nvm", "Log", "LocallyDurable"}:   true,
	{"ddp", "Meta", "PersistencyDone"}: true,
	{"ddp", "WriteTxn", "AckedP"}:      true,
}

// continuationSeed identifies nvm.Pipeline.Enqueue, whose func()
// parameters are post-append continuations.
func isContinuationSeed(fn *types.Func) bool {
	pkg, recv, ok := methodIdentity(fn)
	return ok && pathHasElem(pkg, "nvm") && recv == "Pipeline" && fn.Name() == "Enqueue"
}

// ackKindParams returns the positions of fn's ddp.MsgKind parameters
// when fn is an nvm.Pipeline method: an ack-carrying enqueue, whose
// OnAck hook dispatches the kind after the append.
func ackKindParams(fn *types.Func) map[int]bool {
	pkg, recv, ok := methodIdentity(fn)
	if !ok || !pathHasElem(pkg, "nvm") || recv != "Pipeline" {
		return nil
	}
	var out map[int]bool
	params := fn.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		named, ok := params.At(i).Type().(*types.Named)
		if !ok || named.Obj().Name() != "MsgKind" || named.Obj().Pkg() == nil ||
			!pathHasElem(named.Obj().Pkg().Path(), "ddp") {
			continue
		}
		if out == nil {
			out = make(map[int]bool)
		}
		out[i] = true
	}
	return out
}

func isEvidenceSeed(fn *types.Func) bool {
	pkg, recv, ok := methodIdentity(fn)
	return ok && evidenceSeeds[[3]string{lastProtocolElem(pkg), recv, fn.Name()}]
}

// lastProtocolElem maps an import path to the protocol package element
// the seed table keys on ("nvm" or "ddp"), or "".
func lastProtocolElem(path string) string {
	for _, e := range []string{"nvm", "ddp"} {
		if pathHasElem(path, e) {
			return e
		}
	}
	return ""
}

// methodIdentity returns the package path and receiver base type name
// of a method.
func methodIdentity(fn *types.Func) (pkgPath, recv string, ok bool) {
	if fn == nil || fn.Pkg() == nil {
		return "", "", false
	}
	sig, sok := fn.Type().(*types.Signature)
	if !sok || sig.Recv() == nil {
		return "", "", false
	}
	named, nok := derefNamed(sig.Recv().Type())
	if !nok {
		return "", "", false
	}
	return fn.Pkg().Path(), named.Obj().Name(), true
}

// durableAckKinds are the message kinds that promise durability.
var durableAckKinds = map[string]bool{
	"KindAck":  true, // Synch combined acknowledgment
	"KindAckP": true, // Strict/REnf persistency acknowledgment
}

func runPersistOrder(pass *analysis.Pass) (interface{}, error) {
	path := pass.Pkg.Path()
	if excludedPackage(path) {
		return newDirectiveUse(), nil
	}
	al := buildAllows(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)

	decls := packageFuncDecls(pass)
	world := newDurabilityWorld(pass, decls)
	world.exportFacts()

	// Reporting applies only to live-protocol handler code.
	if !pathHasElem(path, "node") {
		return al.use, nil
	}

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body == nil {
				return
			}
			if fn, ok := pass.TypesInfo.Defs[n.Name].(*types.Func); ok && world.bornDurable[fn] {
				return // runs as a persist continuation
			}
			checkPersistOrder(pass, al, world, n.Body, cfgs.FuncDecl(n))
		case *ast.FuncLit:
			if world.blessed[n] {
				return
			}
			checkPersistOrder(pass, al, world, n.Body, cfgs.FuncLit(n))
		}
	})
	return al.use, nil
}

// durabilityWorld is the package-level interprocedural state: which
// functions provide durability evidence, which forward continuations,
// and which function literals / named functions run as continuations.
type durabilityWorld struct {
	pass        *analysis.Pass
	decls       map[*types.Func]*ast.FuncDecl
	evidence    map[*types.Func]bool
	contParams  map[*types.Func]map[int]bool
	blessed     map[*ast.FuncLit]bool
	bornDurable map[*types.Func]bool
	// defersSend marks functions that hand the pipeline a post-append
	// continuation (persistThen and friends): an ack kind named at their
	// call sites is payload the drain engine sends after the persist, not
	// an acknowledgment constructed here. The same holds for the kind
	// argument of the pipeline's ack-carrying enqueues (ackKindParams).
	defersSend map[*types.Func]bool
}

func newDurabilityWorld(pass *analysis.Pass, decls map[*types.Func]*ast.FuncDecl) *durabilityWorld {
	w := &durabilityWorld{
		pass:        pass,
		decls:       decls,
		evidence:    make(map[*types.Func]bool),
		contParams:  make(map[*types.Func]map[int]bool),
		blessed:     make(map[*ast.FuncLit]bool),
		bornDurable: make(map[*types.Func]bool),
		defersSend:  make(map[*types.Func]bool),
	}
	// Fixpoint over both derivations; continuation forwarding can feed
	// evidence (a blessed helper is still scanned for persists) and vice
	// versa, so iterate them together.
	for changed := true; changed; {
		changed = false
		for fn, decl := range decls {
			if decl.Body == nil {
				continue
			}
			if !w.evidence[fn] && w.bodyHasEvidenceCall(decl.Body) {
				w.evidence[fn] = true
				changed = true
			}
			if w.deriveContinuations(fn, decl) {
				changed = true
			}
		}
	}
	return w
}

// isEvidenceCall reports whether fn establishes durability when called.
func (w *durabilityWorld) isEvidenceCall(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	if isEvidenceSeed(fn) || w.evidence[fn] {
		return true
	}
	if fn.Pkg() != nil && fn.Pkg() != w.pass.Pkg {
		return w.pass.ImportObjectFact(fn, &durableEvidence{})
	}
	return false
}

// continuationPositions returns the argument indices of call that are
// run-after-persist continuations, or nil.
func (w *durabilityWorld) continuationPositions(fn *types.Func) []int {
	if fn == nil {
		return nil
	}
	if isContinuationSeed(fn) {
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			return nil
		}
		var out []int
		for i := 0; i < sig.Params().Len(); i++ {
			if _, isFunc := sig.Params().At(i).Type().Underlying().(*types.Signature); isFunc {
				out = append(out, i)
			}
		}
		return out
	}
	if ps, ok := w.contParams[fn]; ok {
		return sortedInts(ps)
	}
	if fn.Pkg() != nil && fn.Pkg() != w.pass.Pkg {
		var fact durableContinuations
		if w.pass.ImportObjectFact(fn, &fact) {
			return fact.Params
		}
	}
	return nil
}

// bodyHasEvidenceCall reports whether body (outside nested literals)
// calls an evidence provider.
func (w *durabilityWorld) bodyHasEvidenceCall(body *ast.BlockStmt) bool {
	found := false
	walkSameFunc(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if w.isEvidenceCall(calleeFunc(w.pass, call)) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// deriveContinuations scans fn's body for calls with continuation
// positions, blessing literal arguments, marking named-function
// arguments born-durable, and propagating forwarded parameters.
func (w *durabilityWorld) deriveContinuations(fn *types.Func, decl *ast.FuncDecl) bool {
	changed := false
	sig, _ := fn.Type().(*types.Signature)
	paramIndex := func(obj types.Object) int {
		if sig == nil {
			return -1
		}
		for i := 0; i < sig.Params().Len(); i++ {
			if sig.Params().At(i) == obj {
				return i
			}
		}
		return -1
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(w.pass, call)
		for _, pos := range w.continuationPositions(callee) {
			if !w.defersSend[fn] {
				w.defersSend[fn] = true
				changed = true
			}
			if pos >= len(call.Args) {
				continue
			}
			switch arg := call.Args[pos].(type) {
			case *ast.FuncLit:
				if !w.blessed[arg] {
					w.blessed[arg] = true
					changed = true
				}
			case *ast.Ident, *ast.SelectorExpr:
				var id *ast.Ident
				if sel, ok := arg.(*ast.SelectorExpr); ok {
					id = sel.Sel
				} else {
					id = arg.(*ast.Ident)
				}
				switch obj := w.pass.TypesInfo.Uses[id].(type) {
				case *types.Func:
					if !w.bornDurable[obj] {
						w.bornDurable[obj] = true
						changed = true
					}
				case *types.Var:
					if i := paramIndex(obj); i >= 0 {
						if w.contParams[fn] == nil {
							w.contParams[fn] = make(map[int]bool)
						}
						if !w.contParams[fn][i] {
							w.contParams[fn][i] = true
							changed = true
						}
					}
				}
			}
		}
		return true
	})
	return changed
}

// exportFacts publishes evidence and continuation derivations for
// importing packages.
func (w *durabilityWorld) exportFacts() {
	for fn := range w.evidence {
		if fn.Pkg() == w.pass.Pkg {
			w.pass.ExportObjectFact(fn, &durableEvidence{})
		}
	}
	for fn, ps := range w.contParams {
		if fn.Pkg() == w.pass.Pkg && len(ps) > 0 {
			w.pass.ExportObjectFact(fn, &durableContinuations{Params: sortedInts(ps)})
		}
	}
}

func sortedInts(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for i := range m {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// ackSite is one construction of a durable acknowledgment.
type ackSite struct {
	pos  token.Pos
	kind string
}

// checkPersistOrder verifies persist-before-ack within one function.
func checkPersistOrder(pass *analysis.Pass, al *allows, world *durabilityWorld, body *ast.BlockStmt, g *cfg.CFG) {
	acks := findDurableAcks(pass, world, body)
	if len(acks) == 0 || g == nil {
		return
	}
	evidence := findEvidenceIntervals(pass, world, body)

	// Dataflow over the CFG: a block start is "clean" if it is reachable
	// from entry without passing a durability event. Walking a clean
	// block, evidence flips the rest of the block (and its successors,
	// via not propagating clean) to covered; an ack met while still
	// clean is a violation.
	if len(g.Blocks) == 0 {
		return
	}
	clean := make(map[*cfg.Block]bool)
	clean[g.Blocks[0]] = true
	changed := true
	for changed {
		changed = false
		for _, b := range g.Blocks {
			if !clean[b] {
				continue
			}
			stillClean := true
			for _, n := range b.Nodes {
				if nodeHasEvidence(n, evidence) {
					stillClean = false
					break
				}
			}
			if stillClean {
				for _, s := range b.Succs {
					if !clean[s] {
						clean[s] = true
						changed = true
					}
				}
			}
		}
	}

	reported := make(map[token.Pos]bool)
	for _, b := range g.Blocks {
		if !clean[b] {
			continue
		}
		for _, n := range b.Nodes {
			if nodeHasEvidence(n, evidence) {
				break // rest of block is covered
			}
			for _, a := range acks {
				if contains(n, a.pos) && !reported[a.pos] {
					reported[a.pos] = true
					report(pass, al, a.pos,
						"%s acknowledgment is constructed on a path with no preceding "+
							"durable write (persist-before-ack, Fig 2 L39-40): call persist "+
							"or wait for persistency before acknowledging durability", a.kind)
				}
			}
		}
	}
}

// findDurableAcks locates calls whose arguments mention KindAck or
// KindAckP — sendAck(m, KindAck), send(to, Message{Kind: KindAckP, ...}).
// Calls into evidence providers or continuation senders are exempt, as
// is the kind argument of a pipeline ack-carrying enqueue: for those the
// kind is payload that travels with (or behind) the durable write, and
// the actual send happens after it.
func findDurableAcks(pass *analysis.Pass, world *durabilityWorld, body *ast.BlockStmt) []ackSite {
	var out []ackSite
	walkSameFunc(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(pass, call)
		if callee != nil && (world.isEvidenceCall(callee) || world.defersSend[callee]) {
			return true
		}
		afterAppend := ackKindParams(callee)
		for i, arg := range call.Args {
			if afterAppend[i] {
				continue
			}
			kind := ""
			ast.Inspect(arg, func(m ast.Node) bool {
				// A kind named inside a closure argument belongs to the
				// closure, which is checked (or blessed as a pipeline
				// continuation) independently.
				if _, isLit := m.(*ast.FuncLit); isLit {
					return false
				}
				if id, ok := m.(*ast.Ident); ok && durableAckKinds[id.Name] {
					kind = id.Name
				}
				return kind == ""
			})
			if kind != "" {
				out = append(out, ackSite{call.Pos(), kind})
				break
			}
		}
		return true
	})
	return out
}

// evidenceInterval is a source extent that establishes durability: the
// durable call itself, widened to its innermost enclosing loop so that
// "persist each buffered entry" loops count on the zero-iteration path
// too.
type evidenceInterval struct{ lo, hi token.Pos }

func findEvidenceIntervals(pass *analysis.Pass, world *durabilityWorld, body *ast.BlockStmt) []evidenceInterval {
	// Track loop nesting so each evidence call can be widened.
	var out []evidenceInterval
	var walk func(n ast.Node, loop ast.Node)
	walk = func(n ast.Node, loop ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			if m == nil || m == n {
				return m == n
			}
			switch m := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ForStmt, *ast.RangeStmt:
				walk(loopBody(m), m)
				return false
			case *ast.CallExpr:
				if world.isEvidenceCall(calleeFunc(pass, m)) {
					iv := evidenceInterval{m.Pos(), m.End()}
					if loop != nil {
						iv = evidenceInterval{loop.Pos(), loop.End()}
					}
					out = append(out, iv)
				}
			}
			return true
		})
	}
	walk(body, nil)
	return out
}

// loopBody returns the body of a for or range statement.
func loopBody(n ast.Node) ast.Node {
	switch n := n.(type) {
	case *ast.ForStmt:
		// Include Cond: spin loops carry their evidence in the condition.
		return n
	case *ast.RangeStmt:
		return n
	}
	return n
}

// nodeHasEvidence reports whether CFG node n overlaps any evidence
// interval.
func nodeHasEvidence(n ast.Node, evidence []evidenceInterval) bool {
	for _, iv := range evidence {
		if n.Pos() < iv.hi && iv.lo < n.End() {
			return true
		}
	}
	return false
}
