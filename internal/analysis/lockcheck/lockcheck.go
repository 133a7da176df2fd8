// Package lockcheck flags blocking operations performed while a
// sync.Mutex or sync.RWMutex is held.
//
// The engine serialises its store behind an RWMutex, and the ingest path
// backpressures: Engine.Append parks while the queue is full, and the
// cluster node feeds its ingest loop through a bounded channel. Holding a
// lock across a channel send (or any call annotated //gather:blocking,
// such as Engine.Append) couples the lock's critical section to the
// consumer's progress — the classic shape of the ingest/query deadlock.
//
// Lock regions come from the framework's CFG must-hold dataflow
// (framework.WalkHeld): a lock is held at a node only when every path
// reaching it holds the lock, so an early non-deferred Unlock on each
// branch releases the region at the join instead of leaking it
// lexically, and `if mu.TryLock()` opens a region only inside the
// success branch. Deferred unlocks keep the region open to the end of
// the function; sync.Cond Wait is exempt (it releases the mutex while
// parked); function literals are analysed as their own functions — a
// goroutine body does not inherit the spawner's locks, and neither
// does a named function launched with `go`.
package lockcheck

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/framework"
)

// Analyzer is the lockcheck check.
var Analyzer = &framework.Analyzer{
	Name: "lockcheck",
	Doc: "flags channel sends and //gather:blocking calls made while a " +
		"sync mutex is held (lock regions must not wait on channel consumers)",
	Run: run,
}

func run(pass *framework.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if fn, ok := n.(*ast.FuncDecl); ok {
				if fn.Body != nil {
					checkBody(pass, fn.Body)
				}
				return false // checkBody handles nested FuncLits itself
			}
			return true
		})
	}
	return nil
}

// checkBody runs the lock-set dataflow over one function (or literal)
// body and reports channel sends and blocking calls at nodes whose
// must-hold set is non-empty. Locks are keyed by the rendered receiver
// expression ("sh.mu") so diagnostics name the mutex the way the code
// spells it.
func checkBody(pass *framework.Pass, body *ast.BlockStmt) {
	resolve := framework.SyncLockResolver(pass.TypesInfo, func(recv ast.Expr) string {
		return types.ExprString(recv)
	})
	goCalls := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			goCalls[g.Call] = true
		}
		return true
	})
	framework.WalkHeld(body, resolve, func(n ast.Node, held framework.LockSet) {
		switch x := n.(type) {
		case *ast.FuncLit:
			checkBody(pass, x.Body) // fresh lock state: runs on its own goroutine or at exit
		case *ast.SendStmt:
			if !held.Empty() {
				pass.Reportf(x.Arrow, "channel send while holding %s; a blocked consumer stalls every waiter of the lock", heldNames(held))
			}
		case *ast.CallExpr:
			if _, op := resolve(x); op != "" {
				return // the lock operations themselves
			}
			if held.Empty() || goCalls[x] {
				return // a spawned goroutine does not hold the spawner's locks
			}
			if fn := calleeFunc(pass, x); fn != nil {
				if isCondWait(fn) {
					return // Cond.Wait releases the mutex while parked
				}
				if pass.Ann.Blocking[framework.FuncKey(fn)] {
					pass.Reportf(x.Pos(), "call to blocking %s while holding %s", framework.FuncKey(fn), heldNames(held))
				}
			}
		}
	})
}

// calleeFunc resolves the called *types.Func, nil for builtins and
// indirect calls.
func calleeFunc(pass *framework.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// isCondWait reports whether fn is (*sync.Cond).Wait.
func isCondWait(fn *types.Func) bool {
	if fn.Name() != "Wait" || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return framework.TypeKey(sig.Recv().Type()) == "sync.Cond"
}

// heldNames renders the held set for diagnostics.
func heldNames(held framework.LockSet) string {
	return strings.Join(held.Names(), ", ")
}
