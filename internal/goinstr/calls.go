package goinstr

import (
	"go/ast"
	"go/types"
	"strings"
)

// syncMethodMap maps (receiver type, method) onto shim wrappers for the
// sync types the shim models. The receiver is passed as a pointer.
var syncMethodMap = map[string]map[string]string{
	"sync.Mutex":     {"Lock": "MutexLock", "Unlock": "MutexUnlock", "TryLock": "MutexTryLock"},
	"sync.RWMutex":   {"Lock": "RWLock", "Unlock": "RWUnlock", "RLock": "RWRLock", "RUnlock": "RWRUnlock"},
	"sync.WaitGroup": {"Add": "WGAdd", "Done": "WGDone", "Wait": "WGWait"},
	"sync.Once":      {"Do": "OnceDo"},
}

// atomicOps maps each sync/atomic operation onto its shim wrappers by
// what the operation does, whatever its operand type: fn serves the
// package functions named op plus an operand type (AddInt32,
// LoadPointer), method the method named op on every atomic type.
var atomicOps = []struct{ op, fn, method string }{
	{"CompareAndSwap", "ACAS", "TCAS"},
	{"Load", "ALoad", "TLoad"},
	{"Store", "AStore", "TStore"},
	{"Add", "ARMW", "TAdd"},
	{"And", "ARMW", "TAnd"},
	{"Or", "ARMW", "TOr"},
	{"Swap", "ARMW", "TSwap"},
}

// call rewrites a call expression: type conversions pass through with
// rewritten operands, sync/atomic vocabulary maps onto the shim, builtins
// get their special cases, and everything else has its arguments
// rewritten in value context.
func (rw *rewriter) call(call *ast.CallExpr) ast.Expr {
	// A conversion T(x), including unsafe.Pointer and named types.
	if tv, ok := rw.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		call.Args = rw.values(call.Args)
		return call
	}

	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if pn, isPkg := rw.pkg.Info.Uses[id].(*types.PkgName); isPkg {
				return rw.pkgCall(call, fun, pn)
			}
		}
		if sel, ok := rw.pkg.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			return rw.methodCall(call, fun, sel)
		}
		// A func-typed field or variable reached by selection.
		call.Fun = rw.value(fun)
		call.Args = rw.values(call.Args)
		return call

	case *ast.Ident:
		if b, ok := rw.pkg.Info.Uses[fun].(*types.Builtin); ok {
			return rw.builtinCall(call, b.Name())
		}
		if _, isVar := rw.pkg.Info.Uses[fun].(*types.Var); isVar {
			call.Fun = rw.value(fun) // calling through a func-typed variable
		}
		call.Args = rw.values(call.Args)
		return call

	case *ast.FuncLit:
		call.Fun = rw.value(fun)
		call.Args = rw.values(call.Args)
		return call

	default:
		call.Fun = rw.value(call.Fun)
		call.Args = rw.values(call.Args)
		return call
	}
}

// pkgCall handles pkg.F(...) calls: the sync/atomic function vocabulary
// maps onto the shim, anything else keeps its callee.
func (rw *rewriter) pkgCall(call *ast.CallExpr, fun *ast.SelectorExpr, pn *types.PkgName) ast.Expr {
	if pn.Imported().Path() != "sync/atomic" {
		call.Args = rw.values(call.Args)
		return call
	}
	for _, a := range atomicOps {
		if strings.HasPrefix(fun.Sel.Name, a.op) && len(call.Args) >= 1 {
			// The location pointer passes through unrewritten, the
			// operands are value-rewritten and the function itself
			// rides along as the wrapper's last argument.
			rw.stats.Sites++
			args := []ast.Expr{rw.g(), strLit(rw.siteName(call.Args[0])), call.Args[0]}
			args = append(args, rw.values(call.Args[1:])...)
			return rw.vft(a.fn, append(args, fun)...)
		}
	}
	rw.stats.Skipped++
	return call
}

// methodCall handles x.M(...) method calls. A method declared on a sync
// or sync/atomic type — also when promoted through embedded fields —
// maps onto the shim with the receiver's address as the identity, and
// one the shim does not model counts as skipped. Other methods keep
// their receiver untouched (wrapping it would break addressability) and
// have their arguments rewritten.
func (rw *rewriter) methodCall(call *ast.CallExpr, fun *ast.SelectorExpr, sel *types.Selection) ast.Expr {
	call.Args = rw.values(call.Args)
	sig := sel.Obj().Type().(*types.Signature)
	key := syncTypeKey(sig.Recv().Type())
	if key == "" {
		return call
	}
	wrapper := syncMethodMap[key][fun.Sel.Name]
	if strings.HasPrefix(key, "sync/atomic.") {
		for _, a := range atomicOps {
			if a.op == fun.Sel.Name {
				wrapper = a.method
			}
		}
		// atomic.Value takes any: convert each operand, which type
		// inference cannot do for the wrapper's type parameter.
		for i, arg := range call.Args {
			if types.IsInterface(sig.Params().At(i).Type()) {
				// Braces at one source position print as interface{}.
				braces := &ast.FieldList{Opening: fun.Sel.Pos(), Closing: fun.Sel.Pos()}
				call.Args[i] = &ast.CallExpr{Fun: &ast.InterfaceType{Methods: braces}, Args: []ast.Expr{arg}}
			}
		}
	}
	if wrapper == "" {
		rw.stats.Skipped++ // e.g. RWMutex.TryRLock, sync.Map: unmodelled
		return call
	}
	rw.stats.Sites++
	recv, ok := rw.receiver(fun.X, sel)
	if !ok {
		rw.stats.Skipped++
		return call
	}
	args := []ast.Expr{rw.g(), strLit(rw.siteName(recv)), recv}
	return rw.vft(wrapper, append(args, call.Args...)...)
}

// receiver returns the pointer a method call on x passes to the shim:
// x, or &x unless x is a pointer, after selecting the embedded fields the
// method is promoted through. ok is false when the address is illegal.
func (rw *rewriter) receiver(x ast.Expr, sel *types.Selection) (recv ast.Expr, ok bool) {
	t, addressable := typeOf(rw.pkg, x), rw.addressable(x)
	path := sel.Index()
	for _, i := range path[:len(path)-1] {
		if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
			t, addressable = p.Elem(), true
		}
		f := t.Underlying().(*types.Struct).Field(i)
		if !f.Exported() && f.Pkg() != rw.pkg.Pkg {
			return nil, false
		}
		x, t = &ast.SelectorExpr{X: x, Sel: ast.NewIdent(f.Name())}, f.Type()
	}
	if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
		return x, true
	}
	return amp(x), addressable
}

// syncTypeKey renders a sync or sync/atomic named type as
// "pkgpath.Name", stripping one pointer and any type arguments
// (atomic.Pointer[T] keys as "sync/atomic.Pointer"), and any other type
// as "". A value of a sync type is never rd/wr instrumented: its
// operations are mapped instead.
func syncTypeKey(t types.Type) string {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	p := n.Obj().Pkg().Path()
	if p != "sync" && p != "sync/atomic" {
		return ""
	}
	return p + "." + n.Obj().Name()
}

// builtinCall special-cases the builtins that touch traced state.
func (rw *rewriter) builtinCall(call *ast.CallExpr, name string) ast.Expr {
	switch name {
	case "close":
		if len(call.Args) == 1 {
			rw.stats.Sites++
			return rw.vft("CloseChan", rw.g(), strLit(rw.siteName(call.Args[0])), rw.value(call.Args[0]))
		}
	case "delete":
		if len(call.Args) == 2 {
			if rw.decide(call.Args[0]) {
				return rw.vft("MapDel", rw.g(), strLit(rw.siteName(call.Args[0])), call.Args[0], rw.value(call.Args[1]))
			}
			call.Args[1] = rw.value(call.Args[1])
			return call
		}
	case "make", "new":
		// First argument is a type.
		if len(call.Args) > 1 {
			call.Args = append(call.Args[:1], rw.values(call.Args[1:])...)
		}
		return call
	case "len", "cap":
		if tv, ok := rw.pkg.Info.Types[call]; ok && tv.Value != nil {
			return call // constant len/cap: operand is not evaluated
		}
	}
	call.Args = rw.values(call.Args)
	return call
}
