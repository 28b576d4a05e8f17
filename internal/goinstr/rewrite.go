package goinstr

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"
)

// shimAlias is the identifier the rewritten source uses for the runtime
// shim package, and bindIdent the per-function *rt.G binding. Both are
// chosen to be collision-proof against reasonable user code.
const (
	shimAlias = "__vft"
	bindIdent = "__vftg"
)

// rewriter walks every function body, replacing shared memory accesses
// and synchronization operations with calls into the runtime shim. It
// mutates the loaded ASTs in place; emit prints them afterwards.
type rewriter struct {
	pkg   *Package
	sh    *ShareInfo
	elide bool
	stats Stats

	frames  []*frame
	fileVft bool // current file references the shim package
	tmp     int  // fresh-temp counter, package-wide
}

// frame tracks one function body's instrumentation state: whether any
// generated code referenced the per-goroutine binding (and so the
// prologue must be inserted).
type frame struct{ used bool }

func newRewriter(pkg *Package, sh *ShareInfo, elide bool) *rewriter {
	return &rewriter{pkg: pkg, sh: sh, elide: elide}
}

// rewriteAll processes every file, injecting the shim import where used
// and the trace-flush defer into main.main. Every rewrite keeps the
// expressions it wraps, so no import of the original loses its last
// reference.
func (rw *rewriter) rewriteAll() {
	for _, f := range rw.pkg.Files {
		rw.fileVft = false
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			rw.rewriteFunc(fd)
		}
		if rw.fileVft {
			injectImport(f, shimAlias, "vftshadow/rt")
		}
	}
}

func (rw *rewriter) rewriteFunc(fd *ast.FuncDecl) {
	rw.push()
	fd.Body.List = rw.stmts(fd.Body.List)
	fr := rw.pop()

	var prologue []ast.Stmt
	isMain := rw.pkg.Pkg.Name() == "main" && fd.Name.Name == "main" && fd.Recv == nil
	if isMain {
		// The flush defer comes first so it runs last — after any
		// user defers — and also on panic.
		rw.fileVft = true
		prologue = append(prologue, &ast.DeferStmt{Call: rw.vft("Shutdown")})
	}
	if fr.used {
		prologue = append(prologue, &ast.AssignStmt{
			Lhs: []ast.Expr{ast.NewIdent(bindIdent)},
			Tok: token.DEFINE,
			Rhs: []ast.Expr{rw.vft("Bind")},
		})
	}
	if len(prologue) > 0 {
		fd.Body.List = append(prologue, fd.Body.List...)
	}
}

// injectImport prepends an aliased import declaration. Comments were
// never parsed, so prepending a declaration cannot detach any.
func injectImport(f *ast.File, alias, path string) {
	decl := &ast.GenDecl{
		Tok: token.IMPORT,
		Specs: []ast.Spec{&ast.ImportSpec{
			Name: ast.NewIdent(alias),
			Path: &ast.BasicLit{Kind: token.STRING, Value: strconv.Quote(path)},
		}},
	}
	f.Decls = append([]ast.Decl{decl}, f.Decls...)
}

func (rw *rewriter) push() { rw.frames = append(rw.frames, &frame{}) }
func (rw *rewriter) pop() *frame {
	f := rw.frames[len(rw.frames)-1]
	rw.frames = rw.frames[:len(rw.frames)-1]
	return f
}

// g returns the per-goroutine binding identifier, recording that the
// current function needs the Bind prologue.
func (rw *rewriter) g() ast.Expr {
	rw.frames[len(rw.frames)-1].used = true
	return ast.NewIdent(bindIdent)
}

// vft builds a call __vft.Name(args...).
func (rw *rewriter) vft(name string, args ...ast.Expr) *ast.CallExpr {
	rw.fileVft = true
	return &ast.CallExpr{
		Fun:  &ast.SelectorExpr{X: ast.NewIdent(shimAlias), Sel: ast.NewIdent(name)},
		Args: args,
	}
}

func (rw *rewriter) fresh(prefix string) string {
	rw.tmp++
	return fmt.Sprintf("%s%d", prefix, rw.tmp)
}

func amp(e ast.Expr) ast.Expr   { return &ast.UnaryExpr{Op: token.AND, X: e} }
func deref(e ast.Expr) ast.Expr { return &ast.ParenExpr{X: &ast.StarExpr{X: e}} }

func strLit(s string) ast.Expr {
	return &ast.BasicLit{Kind: token.STRING, Value: strconv.Quote(s)}
}

func exprStmt(e ast.Expr) ast.Stmt { return &ast.ExprStmt{X: e} }

func defineStmt(name string, rhs ast.Expr) ast.Stmt {
	return &ast.AssignStmt{Lhs: []ast.Expr{ast.NewIdent(name)}, Tok: token.DEFINE, Rhs: []ast.Expr{rhs}}
}

// siteName renders a stable object-path name for an access expression:
// the textual access path plus the root variable's declaration position.
// Every access spelled through the same path yields the same name in
// every run, which is what makes reports comparable across elide-on and
// elide-off executions (report parity compares rendered names, since
// runtime ids depend on first-touch order).
func (rw *rewriter) siteName(e ast.Expr) string {
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = u.X
	}
	path := rw.pathText(e)
	if root := rw.namingRoot(e); root != nil {
		pos := rw.pkg.Fset.Position(root.Pos())
		return fmt.Sprintf("%s %s:%d:%d", path, filepath.Base(pos.Filename), pos.Line, pos.Column)
	}
	return path
}

func (rw *rewriter) pathText(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.ParenExpr:
		return rw.pathText(x.X)
	case *ast.SelectorExpr:
		return rw.pathText(x.X) + "." + x.Sel.Name
	case *ast.StarExpr:
		return "*" + rw.pathText(x.X)
	case *ast.IndexExpr:
		if _, ok := typeOf(rw.pkg, x.X).Underlying().(*types.Map); ok {
			return rw.pathText(x.X)
		}
		return rw.pathText(x.X) + "[]"
	case *ast.CallExpr:
		return rw.pathText(x.Fun) + "()"
	default:
		return "?"
	}
}

// namingRoot is rootVar's permissive cousin: it digs through pointers,
// slices and maps too, because it only names things.
func (rw *rewriter) namingRoot(e ast.Expr) *types.Var {
	switch x := e.(type) {
	case *ast.Ident:
		v, _ := rw.pkg.Info.Uses[x].(*types.Var)
		return v
	case *ast.ParenExpr:
		return rw.namingRoot(x.X)
	case *ast.SelectorExpr:
		return rw.namingRoot(x.X)
	case *ast.StarExpr:
		return rw.namingRoot(x.X)
	case *ast.IndexExpr:
		return rw.namingRoot(x.X)
	}
	return nil
}

// decide is the elision gate for one instrumentable access path: it
// counts the site, and reports whether to instrument it. Only accesses
// whose storage is provably a non-shared local's own storage are elided,
// and only when elision is on.
func (rw *rewriter) decide(e ast.Expr) bool {
	rw.stats.Sites++
	if root := rootVar(rw.pkg, e); root != nil {
		if _, shared := rw.sh.Shared(root); !shared && rw.elide {
			rw.stats.Elided++
			return false
		}
	}
	return true
}

// addressable conservatively decides whether &e is legal.
func (rw *rewriter) addressable(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		_, ok := rw.pkg.Info.Uses[x].(*types.Var)
		return ok
	case *ast.ParenExpr:
		return rw.addressable(x.X)
	case *ast.StarExpr:
		return true
	case *ast.SelectorExpr:
		sel, ok := rw.pkg.Info.Selections[x]
		if !ok || sel.Kind() != types.FieldVal {
			return false
		}
		if _, isPtr := typeOf(rw.pkg, x.X).Underlying().(*types.Pointer); isPtr {
			return true
		}
		return rw.addressable(x.X)
	case *ast.IndexExpr:
		switch typeOf(rw.pkg, x.X).Underlying().(type) {
		case *types.Slice:
			return true
		case *types.Array:
			return rw.addressable(x.X)
		case *types.Pointer:
			return true // pointer-to-array indexing
		}
		return false
	}
	return false
}

// value rewrites an expression in read context: every instrumentable
// access becomes a shim call returning the same value.
func (rw *rewriter) value(e ast.Expr) ast.Expr {
	switch x := e.(type) {
	case *ast.Ident:
		obj, ok := rw.pkg.Info.Uses[x].(*types.Var)
		if !ok || obj.IsField() || x.Name == "_" {
			return e
		}
		if syncTypeKey(obj.Type()) != "" {
			return e
		}
		if !rw.decide(x) {
			return e
		}
		return rw.vft("Rd", rw.g(), strLit(rw.siteName(x)), amp(x))

	case *ast.ParenExpr:
		x.X = rw.value(x.X)
		return x

	case *ast.SelectorExpr:
		// Package-qualified name, method value/expression, or field path.
		if id, ok := x.X.(*ast.Ident); ok {
			if _, isPkg := rw.pkg.Info.Uses[id].(*types.PkgName); isPkg {
				return e // another package's name: out of scope
			}
		}
		if sel, ok := rw.pkg.Info.Selections[x]; ok && sel.Kind() != types.FieldVal {
			return e // method value: receiver must stay addressable
		}
		if syncTypeKey(typeOf(rw.pkg, x)) != "" {
			return e
		}
		if !rw.addressable(x) {
			rw.stats.Skipped++
			return e
		}
		if !rw.decide(x) {
			return e
		}
		return rw.vft("Rd", rw.g(), strLit(rw.siteName(x)), amp(x))

	case *ast.StarExpr:
		// A dereference is always instrumented: the referent's identity
		// is its runtime address, unknowable statically.
		inner := rw.value(x.X)
		rw.stats.Sites++
		return rw.vft("Rd", rw.g(), strLit(rw.siteName(x)), inner)

	case *ast.IndexExpr:
		// Generic instantiation F[T] parses as an index expression.
		if tv, ok := rw.pkg.Info.Types[x.Index]; ok && tv.IsType() {
			return e
		}
		switch typeOf(rw.pkg, x.X).Underlying().(type) {
		case *types.Map:
			if !rw.decide(x.X) {
				x.Index = rw.value(x.Index)
				return x
			}
			return rw.vft("MapRd", rw.g(), strLit(rw.siteName(x.X)), x.X, rw.value(x.Index))
		case *types.Slice, *types.Pointer:
			rw.stats.Sites++
			idx := &ast.IndexExpr{X: x.X, Index: rw.value(x.Index)}
			return rw.vft("Rd", rw.g(), strLit(rw.siteName(x)), amp(idx))
		case *types.Array:
			if !rw.addressable(x) {
				rw.stats.Skipped++
				x.Index = rw.value(x.Index)
				return x
			}
			if !rw.decide(x) {
				x.Index = rw.value(x.Index)
				return x
			}
			return rw.vft("Rd", rw.g(), strLit(rw.siteName(x)), amp(&ast.IndexExpr{X: x.X, Index: rw.value(x.Index)}))
		default: // string indexing, type parameters
			x.Index = rw.value(x.Index)
			return x
		}

	case *ast.IndexListExpr:
		return e // generic instantiation

	case *ast.UnaryExpr:
		switch x.Op {
		case token.AND:
			return e // taking an address is not an access
		case token.ARROW:
			rw.stats.Sites++
			return rw.vft("Recv", rw.g(), rw.value(x.X))
		default:
			x.X = rw.value(x.X)
			return x
		}

	case *ast.BinaryExpr:
		x.X = rw.value(x.X)
		x.Y = rw.value(x.Y)
		return x

	case *ast.CallExpr:
		return rw.call(x)

	case *ast.CompositeLit:
		for i, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				kv.Value = rw.value(kv.Value)
				continue
			}
			x.Elts[i] = rw.value(el)
		}
		return x

	case *ast.FuncLit:
		rw.push()
		x.Body.List = rw.stmts(x.Body.List)
		if fr := rw.pop(); fr.used {
			// Each literal binds its own goroutine identity: it may run
			// on a goroutine the enclosing binding does not name.
			bind := &ast.AssignStmt{
				Lhs: []ast.Expr{ast.NewIdent(bindIdent)},
				Tok: token.DEFINE,
				Rhs: []ast.Expr{rw.vft("Bind")},
			}
			x.Body.List = append([]ast.Stmt{bind}, x.Body.List...)
		}
		return x

	case *ast.TypeAssertExpr:
		x.X = rw.value(x.X)
		return x

	case *ast.SliceExpr:
		if x.Low != nil {
			x.Low = rw.value(x.Low)
		}
		if x.High != nil {
			x.High = rw.value(x.High)
		}
		if x.Max != nil {
			x.Max = rw.value(x.Max)
		}
		return x

	case *ast.KeyValueExpr:
		x.Value = rw.value(x.Value)
		return x
	}
	return e
}

func (rw *rewriter) values(es []ast.Expr) []ast.Expr {
	for i := range es {
		es[i] = rw.value(es[i])
	}
	return es
}
