package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strings"

	"github.com/minos-ddp/minos/third_party/golang.org/x/tools/go/analysis"
	"github.com/minos-ddp/minos/third_party/golang.org/x/tools/go/analysis/passes/ctrlflow"
	"github.com/minos-ddp/minos/third_party/golang.org/x/tools/go/analysis/passes/inspect"
	"github.com/minos-ddp/minos/third_party/golang.org/x/tools/go/ast/inspector"
	"github.com/minos-ddp/minos/third_party/golang.org/x/tools/go/cfg"
	"github.com/minos-ddp/minos/third_party/golang.org/x/tools/go/types/typeutil"
)

// LockSafe enforces mutex hygiene in the live runtime: no lock values
// copied, no lock leaked on a return path, and no lock held across a
// blocking channel operation or network call. The DDP hot path
// (coordinator write, follower INV handling) takes per-record locks at
// high frequency; any of these defects either deadlocks the protocol or
// stalls unrelated writes behind network latency.
var LockSafe = &analysis.Analyzer{
	Name: "locksafe",
	Doc: "flag mutex value copies, lock/unlock imbalance across return paths, and " +
		"locks held across blocking channel or network operations",
	Requires:   []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer},
	Run:        runLockSafe,
	ResultType: reflect.TypeOf((*DirectiveUse)(nil)),
}

func runLockSafe(pass *analysis.Pass) (interface{}, error) {
	path := pass.Pkg.Path()
	if excludedPackage(path) || simSidePackage(path) {
		// The simulator is single-threaded by construction; its
		// determinism analyzer owns that domain.
		return newDirectiveUse(), nil
	}
	al := buildAllows(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)

	ins.Preorder([]ast.Node{
		(*ast.FuncDecl)(nil),
		(*ast.FuncLit)(nil),
		(*ast.AssignStmt)(nil),
		(*ast.RangeStmt)(nil),
	}, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.FuncDecl:
			checkLockCopiesInSignature(pass, al, n)
			if n.Body != nil {
				analyzeLockFlow(pass, al, n.Name.Name, n.Body, func() *cfg.CFG { return cfgs.FuncDecl(n) })
			}
		case *ast.FuncLit:
			analyzeLockFlow(pass, al, "", n.Body, func() *cfg.CFG { return cfgs.FuncLit(n) })
		case *ast.AssignStmt:
			checkLockCopyAssign(pass, al, n)
		case *ast.RangeStmt:
			if n.Value != nil {
				if t := pass.TypesInfo.TypeOf(n.Value); t != nil && containsMutex(t, 0) {
					report(pass, al, n.Value.Pos(),
						"range copies a value containing a mutex (%s); iterate by index or store pointers", t)
				}
			}
		}
	})
	return al.use, nil
}

// containsMutex reports whether t (passed or copied by value) contains a
// sync.Mutex or sync.RWMutex.
func containsMutex(t types.Type, depth int) bool {
	if depth > 8 {
		return false
	}
	t = types.Unalias(t)
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
			(obj.Name() == "Mutex" || obj.Name() == "RWMutex") {
			return true
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsMutex(u.Field(i).Type(), depth+1) {
				return true
			}
		}
	case *types.Array:
		return containsMutex(u.Elem(), depth+1)
	}
	return false
}

// checkLockCopiesInSignature flags receivers and parameters that take a
// mutex-bearing struct by value.
func checkLockCopiesInSignature(pass *analysis.Pass, al *allows, fn *ast.FuncDecl) {
	checkField := func(f *ast.Field, what string) {
		t := pass.TypesInfo.TypeOf(f.Type)
		if t == nil {
			return
		}
		if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
			return
		}
		if containsMutex(t, 0) {
			report(pass, al, f.Pos(), "%s of %s passes a lock by value: %s contains a mutex",
				what, fn.Name.Name, t)
		}
	}
	if fn.Recv != nil {
		for _, f := range fn.Recv.List {
			checkField(f, "receiver")
		}
	}
	if fn.Type.Params != nil {
		for _, f := range fn.Type.Params.List {
			checkField(f, "parameter")
		}
	}
}

// checkLockCopyAssign flags `x := y` / `x = y` where y is an existing
// value (not a fresh literal or call result) whose type contains a
// mutex.
func checkLockCopyAssign(pass *analysis.Pass, al *allows, s *ast.AssignStmt) {
	if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
		return
	}
	for i, rhs := range s.Rhs {
		if len(s.Lhs) == len(s.Rhs) {
			if id, ok := s.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
				continue // discard, not a usable copy
			}
		}
		switch rhs.(type) {
		case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
		default:
			continue // composite literals / calls construct new values
		}
		t := pass.TypesInfo.TypeOf(rhs)
		if t == nil {
			continue
		}
		if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
			continue
		}
		if containsMutex(t, 0) {
			report(pass, al, rhs.Pos(), "assignment copies a value containing a mutex (%s)", t)
		}
	}
}

// lockWrapperNames are methods that intentionally acquire or release and
// return while holding/releasing: analyzing their bodies for balance is
// meaningless.
var lockWrapperNames = map[string]bool{
	"Lock": true, "RLock": true, "Unlock": true, "RUnlock": true,
	"TryLock": true, "TryRLock": true,
}

// lockSite is one X.Lock()/X.RLock() call inside a function.
type lockSite struct {
	call   *ast.CallExpr
	key    string // canonical text of X
	root   string // leading identifier of X ("n" for "n.mu")
	unlock string // matching release method name
}

// blockOp is a potentially blocking operation found in a function body.
type blockOp struct {
	pos  token.Pos
	desc string
}

// analyzeLockFlow runs the per-function lock checks: every acquired
// lock must be released on every path, and no blocking operation may
// run while it is held.
func analyzeLockFlow(pass *analysis.Pass, al *allows, name string, body *ast.BlockStmt, getCFG func() *cfg.CFG) {
	if lockWrapperNames[name] {
		return
	}
	locks := findLockSites(body)
	if len(locks) == 0 {
		return
	}
	blocking := findBlockingOps(pass, body)
	deferred := deferredUnlocks(body)

	g := getCFG()
	for _, ls := range locks {
		if deferred[ls.key+"."+ls.unlock] {
			// Balanced by defer; the lock is held until function exit,
			// so any blocking op after the acquisition runs under it.
			for _, op := range blocking {
				if op.pos > ls.call.End() {
					report(pass, al, op.pos,
						"lock %s (acquired at %s, released only by deferred %s) is held across %s",
						ls.key, pass.Fset.Position(ls.call.Pos()), ls.unlock, op.desc)
				}
			}
			continue
		}
		if g != nil {
			walkLockPaths(pass, al, g, ls, blocking)
		}
	}
}

// findLockSites collects X.Lock()/X.RLock() calls directly in this
// function (not in nested function literals).
func findLockSites(body *ast.BlockStmt) []lockSite {
	var out []lockSite
	walkSameFunc(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		var unlock string
		switch sel.Sel.Name {
		case "Lock":
			unlock = "Unlock"
		case "RLock":
			unlock = "RUnlock"
		default:
			return true
		}
		out = append(out, lockSite{
			call:   call,
			key:    types.ExprString(sel.X),
			root:   rootIdent(sel.X),
			unlock: unlock,
		})
		return true
	})
	return out
}

// rootIdent returns the leading identifier of a selector chain.
func rootIdent(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x.Name
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return ""
		}
	}
}

// deferredUnlocks collects "key.Unlock" strings released by defer
// statements, including defers of function literals that unlock inside.
func deferredUnlocks(body *ast.BlockStmt) map[string]bool {
	out := make(map[string]bool)
	record := func(call *ast.CallExpr) {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && len(call.Args) == 0 {
			if sel.Sel.Name == "Unlock" || sel.Sel.Name == "RUnlock" {
				out[types.ExprString(sel.X)+"."+sel.Sel.Name] = true
			}
		}
	}
	walkSameFunc(body, func(n ast.Node) bool {
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
			// A closure that acquires the lock itself (Lock...Unlock
			// pairs, e.g. a deferred map-cleanup critical section) is
			// self-contained: its Unlock does not release an acquisition
			// made outside the defer.
			selfLocked := make(map[string]bool)
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if c, ok := m.(*ast.CallExpr); ok && len(c.Args) == 0 {
					if sel, ok := c.Fun.(*ast.SelectorExpr); ok {
						if sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock" {
							selfLocked[types.ExprString(sel.X)] = true
						}
					}
				}
				return true
			})
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if c, ok := m.(*ast.CallExpr); ok {
					if sel, ok := c.Fun.(*ast.SelectorExpr); ok && selfLocked[types.ExprString(sel.X)] {
						return true
					}
					record(c)
				}
				return true
			})
			return true
		}
		record(d.Call)
		return true
	})
	return out
}

// findBlockingOps records operations that can block indefinitely:
// channel sends/receives (including the comms of selects without a
// default), time.Sleep, WaitGroup.Wait, net package I/O, and transport
// sends. Comms of selects WITH a default are non-blocking and skipped.
func findBlockingOps(pass *analysis.Pass, body *ast.BlockStmt) []blockOp {
	var out []blockOp
	var selects []*ast.SelectStmt
	walkSameFunc(body, func(n ast.Node) bool {
		if s, ok := n.(*ast.SelectStmt); ok {
			selects = append(selects, s)
		}
		return true
	})
	inSelect := func(pos token.Pos) bool {
		for _, s := range selects {
			if contains(s, pos) {
				return true
			}
		}
		return false
	}
	for _, s := range selects {
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if hasDefault {
			continue
		}
		out = append(out, blockOp{s.Pos(), "a blocking select"})
	}
	walkSameFunc(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			if !inSelect(n.Pos()) {
				out = append(out, blockOp{n.Pos(), "a channel send"})
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !inSelect(n.Pos()) {
				out = append(out, blockOp{n.Pos(), "a channel receive"})
			}
		case *ast.CallExpr:
			if desc := blockingCallDesc(pass, n); desc != "" {
				out = append(out, blockOp{n.Pos(), desc})
			}
		}
		return true
	})
	return out
}

// blockingCallDesc classifies calls that block on external progress.
func blockingCallDesc(pass *analysis.Pass, call *ast.CallExpr) string {
	fn := typeutil.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Sleep" {
			return "time.Sleep"
		}
	case "sync":
		if fn.Name() == "Wait" {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				// WaitGroup.Wait blocks on other goroutines; Cond.Wait
				// releases the lock while waiting and is the intended
				// spin primitive.
				if strings.Contains(sig.Recv().Type().String(), "WaitGroup") {
					return "sync.WaitGroup.Wait"
				}
			}
		}
	case "net":
		return "network I/O (net." + fn.Name() + ")"
	}
	if isTransportSend(pass, call) {
		return "a transport send"
	}
	return ""
}

// pathTerminatorNames end a control-flow path without returning.
var pathTerminatorNames = map[string]bool{
	"Fatal": true, "Fatalf": true, "FailNow": true,
	"Skip": true, "Skipf": true, "SkipNow": true, "Goexit": true,
}

// terminatesPath reports whether n unconditionally ends the goroutine
// (panic, os.Exit, log.Fatal, testing.T.Fatal...).
func terminatesPath(pass *analysis.Pass, n ast.Node) bool {
	found := false
	walkSameFunc(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
			found = true
			return false
		}
		fn := typeutil.Callee(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "os":
			if fn.Name() == "Exit" {
				found = true
			}
		case "log":
			if fn.Name() == "Fatal" || fn.Name() == "Fatalf" || fn.Name() == "Fatalln" {
				found = true
			}
		case "testing", "runtime":
			if pathTerminatorNames[fn.Name()] {
				found = true
			}
		}
		return !found
	})
	return found
}

// walkLockPaths walks the CFG from a lock acquisition and reports (a) a
// blocking operation encountered while the lock is held, and (b) a
// return reachable without releasing it. A call that passes the locked
// value as an argument transfers ownership (callee is responsible) and
// ends the path.
func walkLockPaths(pass *analysis.Pass, al *allows, g *cfg.CFG, ls lockSite, blocking []blockOp) {
	// Locate the lock call in the CFG.
	startBlock, startIdx := -1, -1
	for bi, b := range g.Blocks {
		for ni, n := range b.Nodes {
			if contains(n, ls.call.Pos()) {
				startBlock, startIdx = bi, ni
				break
			}
		}
		if startBlock >= 0 {
			break
		}
	}
	if startBlock < 0 {
		return // lock in a defer clause or otherwise outside the CFG
	}

	reportedLeak := false
	reportedBlock := make(map[token.Pos]bool)
	type item struct {
		b   *cfg.Block
		idx int
	}
	visited := make(map[*cfg.Block]bool)
	queue := []item{{g.Blocks[startBlock], startIdx + 1}}
	visited[g.Blocks[startBlock]] = true

	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		released := false
		for i := it.idx; i < len(it.b.Nodes); i++ {
			n := it.b.Nodes[i]
			if unlocksKey(n, ls) || transfersOwnership(n, ls) || terminatesPath(pass, n) {
				released = true
				break
			}
			for _, op := range blocking {
				if contains(n, op.pos) && !reportedBlock[op.pos] {
					reportedBlock[op.pos] = true
					report(pass, al, op.pos, "lock %s (acquired at %s) is held across %s",
						ls.key, pass.Fset.Position(ls.call.Pos()), op.desc)
				}
			}
			if _, isRet := n.(*ast.ReturnStmt); isRet {
				if !reportedLeak {
					reportedLeak = true
					report(pass, al, ls.call.Pos(),
						"%s.%s is not released on the return path at %s",
						ls.key, lockName(ls), pass.Fset.Position(n.Pos()))
				}
				released = true
				break
			}
		}
		if released {
			continue
		}
		if len(it.b.Succs) == 0 {
			// Fell off the end of the function while holding the lock.
			if !reportedLeak && it.b.Return() == nil {
				reportedLeak = true
				report(pass, al, ls.call.Pos(),
					"%s.%s is not released before the function exits", ls.key, lockName(ls))
			}
			continue
		}
		for _, s := range it.b.Succs {
			if !visited[s] {
				visited[s] = true
				queue = append(queue, item{s, 0})
			}
		}
	}
}

func lockName(ls lockSite) string {
	if ls.unlock == "RUnlock" {
		return "RLock"
	}
	return "Lock"
}

// unlocksKey reports whether node n releases ls (a direct matching
// unlock call, or a defer that will).
func unlocksKey(n ast.Node, ls lockSite) bool {
	found := false
	walkSameFunc(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != ls.unlock || len(call.Args) != 0 {
			return true
		}
		if types.ExprString(sel.X) == ls.key {
			found = true
		}
		return !found
	})
	return found
}

// transfersOwnership reports whether n passes the locked value itself to
// a callee as an explicit argument — the convention for "callee
// unlocks" handoffs (e.g. obsoleteAck(r, w) with r locked).
func transfersOwnership(n ast.Node, ls lockSite) bool {
	found := false
	walkSameFunc(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			s := types.ExprString(arg)
			if s == ls.key || (ls.root != "" && s == ls.root) {
				found = true
			}
		}
		return !found
	})
	return found
}
