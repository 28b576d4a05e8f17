package goinstr

import (
	"go/ast"
	"go/token"
	"go/types"
)

// assignOp maps op-assign tokens onto their binary operator.
var assignOp = map[token.Token]token.Token{
	token.ADD_ASSIGN: token.ADD, token.SUB_ASSIGN: token.SUB,
	token.MUL_ASSIGN: token.MUL, token.QUO_ASSIGN: token.QUO,
	token.REM_ASSIGN: token.REM, token.AND_ASSIGN: token.AND,
	token.OR_ASSIGN: token.OR, token.XOR_ASSIGN: token.XOR,
	token.SHL_ASSIGN: token.SHL, token.SHR_ASSIGN: token.SHR,
	token.AND_NOT_ASSIGN: token.AND_NOT,
}

func (rw *rewriter) stmts(list []ast.Stmt) []ast.Stmt {
	var out []ast.Stmt
	for _, s := range list {
		out = append(out, rw.stmt(s)...)
	}
	return out
}

// stmt rewrites one statement; hoisting rewrites (go-statement argument
// capture, select operand evaluation, channel ranges) return several.
func (rw *rewriter) stmt(s ast.Stmt) []ast.Stmt {
	switch x := s.(type) {
	case *ast.ExprStmt:
		x.X = rw.value(x.X)
		return one(x)

	case *ast.AssignStmt:
		return rw.assign(x)

	case *ast.IncDecStmt:
		return rw.incDec(x)

	case *ast.SendStmt:
		rw.stats.Sites++
		return one(exprStmt(rw.vft("Send", rw.g(), rw.value(x.Chan), rw.value(x.Value))))

	case *ast.GoStmt:
		return rw.goStmt(x)

	case *ast.DeferStmt:
		if c, ok := rw.call(x.Call).(*ast.CallExpr); ok {
			x.Call = c
		}
		return one(x)

	case *ast.ReturnStmt:
		x.Results = rw.values(x.Results)
		return one(x)

	case *ast.BlockStmt:
		x.List = rw.stmts(x.List)
		return one(x)

	case *ast.IfStmt:
		var pre []ast.Stmt
		if x.Init != nil {
			pre, x.Init = rw.simple(x.Init)
		}
		x.Cond = rw.value(x.Cond)
		x.Body.List = rw.stmts(x.Body.List)
		if x.Else != nil {
			out := rw.stmt(x.Else)
			if len(out) == 1 {
				x.Else = out[0]
			} else {
				x.Else = &ast.BlockStmt{List: out}
			}
		}
		return block(pre, x)

	case *ast.ForStmt:
		var pre []ast.Stmt
		if x.Init != nil {
			pre, x.Init = rw.simple(x.Init)
		}
		if x.Cond != nil {
			x.Cond = rw.value(x.Cond)
		}
		if x.Post != nil {
			// The post statement cannot become several statements; leave
			// shapes that would need hoisting uninstrumented.
			if out := rw.stmt(x.Post); len(out) == 1 {
				x.Post = out[0]
			} else {
				rw.stats.Skipped++
			}
		}
		x.Body.List = rw.stmts(x.Body.List)
		return block(pre, x)

	case *ast.RangeStmt:
		return rw.rangeStmt(x)

	case *ast.SwitchStmt:
		var pre []ast.Stmt
		if x.Init != nil {
			pre, x.Init = rw.simple(x.Init)
		}
		if x.Tag != nil {
			x.Tag = rw.value(x.Tag)
		}
		for _, c := range x.Body.List {
			cc := c.(*ast.CaseClause)
			cc.List = rw.values(cc.List)
			cc.Body = rw.stmts(cc.Body)
		}
		return block(pre, x)

	case *ast.TypeSwitchStmt:
		var pre []ast.Stmt
		if x.Init != nil {
			pre, x.Init = rw.simple(x.Init)
		}
		switch a := x.Assign.(type) {
		case *ast.AssignStmt:
			if ta, ok := a.Rhs[0].(*ast.TypeAssertExpr); ok {
				ta.X = rw.value(ta.X)
			}
		case *ast.ExprStmt:
			if ta, ok := a.X.(*ast.TypeAssertExpr); ok {
				ta.X = rw.value(ta.X)
			}
		}
		for _, c := range x.Body.List {
			cc := c.(*ast.CaseClause)
			cc.Body = rw.stmts(cc.Body)
		}
		return block(pre, x)

	case *ast.SelectStmt:
		return rw.selectStmt(x)

	case *ast.LabeledStmt:
		out := rw.stmt(x.Stmt)
		// Hoisted temps go before the label; the label sticks to the
		// rewritten loop/select so labeled break/continue still resolve.
		x.Stmt = out[len(out)-1]
		return append(out[:len(out)-1], x)

	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					vs.Values = rw.values(vs.Values)
				}
			}
		}
		return one(x)
	}
	return one(s)
}

func one(s ast.Stmt) []ast.Stmt { return []ast.Stmt{s} }

// block returns pre+s, wrapped in a block when there are hoisted temps so
// their scope stays contained.
func block(pre []ast.Stmt, s ast.Stmt) []ast.Stmt {
	if len(pre) == 0 {
		return one(s)
	}
	return one(&ast.BlockStmt{List: append(pre, s)})
}

// simple rewrites a simple statement (an if/for/switch init); a rewrite
// that needs several statements is returned as a hoist prefix.
func (rw *rewriter) simple(s ast.Stmt) (pre []ast.Stmt, same ast.Stmt) {
	out := rw.stmt(s)
	if len(out) == 1 {
		return nil, out[0]
	}
	return out, nil
}

// assign rewrites an assignment statement in all its shapes.
func (rw *rewriter) assign(s *ast.AssignStmt) []ast.Stmt {
	// Two-result special forms: v, ok := <-ch / m[k] / x.(T).
	if len(s.Lhs) == 2 && len(s.Rhs) == 1 {
		switch r := s.Rhs[0].(type) {
		case *ast.UnaryExpr:
			if r.Op == token.ARROW {
				rw.stats.Sites++
				pre := rw.writeLogs(s)
				s.Rhs[0] = rw.vft("Recv2", rw.g(), rw.value(r.X))
				return append(pre, s)
			}
		case *ast.IndexExpr:
			if _, ok := typeOf(rw.pkg, r.X).Underlying().(*types.Map); ok {
				pre := rw.writeLogs(s)
				if rw.decide(r.X) {
					s.Rhs[0] = rw.vft("MapRd2", rw.g(), strLit(rw.siteName(r.X)), r.X, rw.value(r.Index))
				} else {
					r.Index = rw.value(r.Index)
				}
				return append(pre, s)
			}
		case *ast.TypeAssertExpr:
			pre := rw.writeLogs(s)
			r.X = rw.value(r.X)
			return append(pre, s)
		}
	}

	// Single-target forms get the precise in-place wrappers.
	if len(s.Lhs) == 1 && len(s.Rhs) == 1 && s.Tok != token.DEFINE {
		return rw.assignOne(s)
	}

	// General case: define/multi-assign. New variables need no write
	// event (their first write happens-before any other goroutine can
	// reach them); existing targets get statement-level write logs.
	pre := rw.writeLogs(s)
	s.Rhs = rw.values(s.Rhs)
	// Inner reads of index targets still happen.
	for _, l := range s.Lhs {
		if idx, ok := l.(*ast.IndexExpr); ok {
			idx.Index = rw.value(idx.Index)
		}
	}
	return append(pre, s)
}

// writeLogs prepends statement-level write events for every assigned
// existing variable the rewriter should trace (the fallback used where
// the in-place *Wr(&x) = v shape does not fit).
func (rw *rewriter) writeLogs(s *ast.AssignStmt) []ast.Stmt {
	var pre []ast.Stmt
	for _, l := range s.Lhs {
		if id, ok := l.(*ast.Ident); ok {
			if id.Name == "_" {
				continue
			}
			if s.Tok == token.DEFINE && rw.pkg.Info.Defs[id] != nil {
				continue // fresh variable: no write event needed
			}
		} else if s.Tok == token.DEFINE {
			continue
		}
		if idx, ok := l.(*ast.IndexExpr); ok {
			if _, isMap := typeOf(rw.pkg, idx.X).Underlying().(*types.Map); isMap {
				if rw.decide(idx.X) {
					pre = append(pre, exprStmt(rw.vft("WrAddr", rw.g(), strLit(rw.siteName(idx.X)), idx.X)))
				}
				continue
			}
		}
		if syncTypeKey(typeOf(rw.pkg, l)) != "" {
			continue
		}
		if !rw.addressable(l) {
			rw.stats.Skipped++
			continue
		}
		if rw.decide(l) {
			pre = append(pre, exprStmt(rw.vft("WrAddr", rw.g(), strLit(rw.siteName(l)), amp(l))))
		}
	}
	return pre
}

// assignOne handles `lhs = rhs` and `lhs op= rhs` with one target.
func (rw *rewriter) assignOne(s *ast.AssignStmt) []ast.Stmt {
	lhs := s.Lhs[0]

	if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
		s.Rhs[0] = rw.value(s.Rhs[0])
		return one(s)
	}

	// Map element target.
	if idx, ok := lhs.(*ast.IndexExpr); ok {
		if _, isMap := typeOf(rw.pkg, idx.X).Underlying().(*types.Map); isMap {
			return rw.mapAssign(s, idx)
		}
	}

	if syncTypeKey(typeOf(rw.pkg, lhs)) != "" {
		s.Rhs[0] = rw.value(s.Rhs[0])
		return one(s)
	}
	if !rw.addressable(lhs) {
		rw.stats.Skipped++
		s.Rhs[0] = rw.value(s.Rhs[0])
		return one(s)
	}
	if !rw.decide(lhs) {
		// Elided target; inner index reads still count.
		if idx, ok := lhs.(*ast.IndexExpr); ok {
			idx.Index = rw.value(idx.Index)
		}
		s.Rhs[0] = rw.value(s.Rhs[0])
		return one(s)
	}

	site := rw.siteName(lhs)
	ptr := rw.lvPtr(lhs)
	wrapper := "Wr"
	if s.Tok != token.ASSIGN {
		wrapper = "RdWr" // op-assign reads then writes
	}
	s.Lhs[0] = deref(rw.vft(wrapper, rw.g(), strLit(site), ptr))
	s.Rhs[0] = rw.value(s.Rhs[0])
	return one(s)
}

// mapAssign rewrites m[k] = v and m[k] op= v onto the map wrappers,
// hoisting the key so it is evaluated once.
func (rw *rewriter) mapAssign(s *ast.AssignStmt, idx *ast.IndexExpr) []ast.Stmt {
	if !rw.decide(idx.X) {
		idx.Index = rw.value(idx.Index)
		s.Rhs[0] = rw.value(s.Rhs[0])
		return one(s)
	}
	site := strLit(rw.siteName(idx.X))
	if s.Tok == token.ASSIGN {
		return one(exprStmt(rw.vft("MapWr", rw.g(), site, idx.X, rw.value(idx.Index), rw.value(s.Rhs[0]))))
	}
	op, ok := assignOp[s.Tok]
	if !ok {
		rw.stats.Skipped++
		return one(s)
	}
	k := rw.fresh("__vft_k")
	read := rw.vft("MapRd", rw.g(), site, idx.X, ast.NewIdent(k))
	upd := &ast.BinaryExpr{X: read, Op: op, Y: rw.value(s.Rhs[0])}
	return one(&ast.BlockStmt{List: []ast.Stmt{
		defineStmt(k, rw.value(idx.Index)),
		exprStmt(rw.vft("MapWr", rw.g(), site, idx.X, ast.NewIdent(k), upd)),
	}})
}

// lvPtr builds the &lhs pointer for an addressable target, rewriting the
// inner reads (index expressions, the pointer of a dereference) on the
// way.
func (rw *rewriter) lvPtr(lhs ast.Expr) ast.Expr {
	switch x := lhs.(type) {
	case *ast.ParenExpr:
		return rw.lvPtr(x.X)
	case *ast.StarExpr:
		return rw.value(x.X) // *p: the pointer itself is read
	case *ast.IndexExpr:
		x.Index = rw.value(x.Index)
		return amp(x)
	default:
		return amp(lhs)
	}
}

// incDec rewrites x++ / x--.
func (rw *rewriter) incDec(s *ast.IncDecStmt) []ast.Stmt {
	if idx, ok := s.X.(*ast.IndexExpr); ok {
		if _, isMap := typeOf(rw.pkg, idx.X).Underlying().(*types.Map); isMap {
			if !rw.decide(idx.X) {
				idx.Index = rw.value(idx.Index)
				return one(s)
			}
			op := token.ADD
			if s.Tok == token.DEC {
				op = token.SUB
			}
			site := strLit(rw.siteName(idx.X))
			k := rw.fresh("__vft_k")
			read := rw.vft("MapRd", rw.g(), site, idx.X, ast.NewIdent(k))
			upd := &ast.BinaryExpr{X: read, Op: op, Y: &ast.BasicLit{Kind: token.INT, Value: "1"}}
			return one(&ast.BlockStmt{List: []ast.Stmt{
				defineStmt(k, rw.value(idx.Index)),
				exprStmt(rw.vft("MapWr", rw.g(), site, idx.X, ast.NewIdent(k), upd)),
			}})
		}
	}
	if syncTypeKey(typeOf(rw.pkg, s.X)) != "" || !rw.addressable(s.X) {
		if !rw.addressable(s.X) {
			rw.stats.Skipped++
		}
		return one(s)
	}
	if !rw.decide(s.X) {
		return one(s)
	}
	s.X = deref(rw.vft("RdWr", rw.g(), strLit(rw.siteName(s.X)), rw.lvPtr(s.X)))
	return one(s)
}

// goStmt rewrites `go f(args)`: the fork event and the child binding are
// the whole point of the front-end. The function and argument
// expressions are hoisted to temps so they are still evaluated in the
// parent (the Go spec's semantics), then the child runs them inside
// rt.Spawn under its forked thread id.
func (rw *rewriter) goStmt(s *ast.GoStmt) []ast.Stmt {
	call := s.Call
	var pre []ast.Stmt
	var spawnFn ast.Expr

	lit, isLit := call.Fun.(*ast.FuncLit)
	switch {
	case isLit && len(call.Args) == 0:
		// go func(){...}(): the rewritten literal is the spawn body.
		spawnFn = rw.value(lit)

	case rw.tupleArg(call):
		// go f(g()) with a multi-value g: hoisting would need tuple
		// temps; evaluate in the child instead (documented deviation).
		rw.stats.Skipped++
		if isLit {
			call.Fun = rw.value(lit)
		} else {
			call.Args = rw.values(call.Args)
		}
		spawnFn = thunk(call)

	default:
		funExpr := call.Fun
		switch {
		case isLit:
			funExpr = rw.value(lit)
		case rw.simpleFunc(call.Fun):
			// A declared function or builtin: naming it has no effects.
		default:
			tmp := rw.fresh("__vft_f")
			pre = append(pre, defineStmt(tmp, rw.value(call.Fun)))
			funExpr = ast.NewIdent(tmp)
		}
		args := make([]ast.Expr, len(call.Args))
		for i, a := range call.Args {
			if rw.isConstant(a) {
				args[i] = a
				continue
			}
			tmp := rw.fresh("__vft_a")
			pre = append(pre, defineStmt(tmp, rw.value(a)))
			args[i] = ast.NewIdent(tmp)
		}
		inner := &ast.CallExpr{Fun: funExpr, Args: args}
		if call.Ellipsis.IsValid() {
			inner.Ellipsis = 1
		}
		spawnFn = thunk(exprCall(inner))
	}

	goStmt := &ast.GoStmt{Call: rw.vft("Spawn", rw.vft("Fork", rw.g()), spawnFn)}
	return append(pre, goStmt)
}

func exprCall(c *ast.CallExpr) *ast.CallExpr { return c }

// thunk wraps a call in func() { call() }.
func thunk(c *ast.CallExpr) ast.Expr {
	return &ast.FuncLit{
		Type: &ast.FuncType{Params: &ast.FieldList{}},
		Body: &ast.BlockStmt{List: []ast.Stmt{exprStmt(c)}},
	}
}

func (rw *rewriter) tupleArg(call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	tv, ok := rw.pkg.Info.Types[call.Args[0]]
	if !ok {
		return false
	}
	_, isTuple := tv.Type.(*types.Tuple)
	return isTuple
}

// simpleFunc reports whether naming the go-call's function is free of
// effects and reads: a declared function, a builtin, or a
// package-qualified function.
func (rw *rewriter) simpleFunc(fun ast.Expr) bool {
	switch f := fun.(type) {
	case *ast.Ident:
		switch rw.pkg.Info.Uses[f].(type) {
		case *types.Func, *types.Builtin:
			return true
		}
	case *ast.SelectorExpr:
		if id, ok := f.X.(*ast.Ident); ok {
			if _, isPkg := rw.pkg.Info.Uses[id].(*types.PkgName); isPkg {
				return true
			}
		}
	}
	return false
}

func (rw *rewriter) isConstant(e ast.Expr) bool {
	tv, ok := rw.pkg.Info.Types[e]
	return ok && (tv.Value != nil || tv.IsNil())
}

// rangeStmt handles for-range: channel ranges desugar into a receive
// loop (the only way to trace each receive), map ranges log one map
// read, the rest pass through with rewritten bodies.
func (rw *rewriter) rangeStmt(s *ast.RangeStmt) []ast.Stmt {
	switch typeOf(rw.pkg, s.X).Underlying().(type) {
	case *types.Chan:
		return rw.rangeChan(s)
	case *types.Map:
		if rw.decide(s.X) {
			s.X = rw.vft("MapRange", rw.g(), strLit(rw.siteName(s.X)), s.X)
		}
	}
	s.Body.List = rw.stmts(s.Body.List)
	return one(s)
}

// rangeChan desugars `for v := range ch { body }` into an explicit
// receive loop through the shim:
//
//	__vft_cN := ch
//	for {
//		__vft_vN, __vft_okN := __vft.Recv2(__vftg, __vft_cN)
//		if !__vft_okN { break }
//		v := __vft_vN
//		body
//	}
//
// break/continue (including labeled, via the LabeledStmt path) keep
// their meaning: the new loop is the statement the label binds to.
func (rw *rewriter) rangeChan(s *ast.RangeStmt) []ast.Stmt {
	rw.stats.Sites++
	ch := rw.fresh("__vft_c")
	pre := defineStmt(ch, rw.value(s.X))

	okName := rw.fresh("__vft_ok")
	vName := "_"
	haveKey := s.Key != nil && !isBlank(s.Key)
	if haveKey {
		vName = rw.fresh("__vft_v")
	}
	recv := &ast.AssignStmt{
		Lhs: []ast.Expr{ast.NewIdent(vName), ast.NewIdent(okName)},
		Tok: token.DEFINE,
		Rhs: []ast.Expr{rw.vft("Recv2", rw.g(), ast.NewIdent(ch))},
	}
	brk := &ast.IfStmt{
		Cond: &ast.UnaryExpr{Op: token.NOT, X: ast.NewIdent(okName)},
		Body: &ast.BlockStmt{List: []ast.Stmt{&ast.BranchStmt{Tok: token.BREAK}}},
	}
	body := []ast.Stmt{recv, brk}
	if haveKey {
		kv := &ast.AssignStmt{Lhs: []ast.Expr{s.Key}, Tok: s.Tok, Rhs: []ast.Expr{ast.NewIdent(vName)}}
		if s.Tok == token.ASSIGN {
			body = append(body, rw.assign(kv)...) // existing var: traced write
		} else {
			body = append(body, kv)
		}
	}
	body = append(body, rw.stmts(s.Body.List)...)
	loop := &ast.ForStmt{Body: &ast.BlockStmt{List: body}}
	return []ast.Stmt{pre, loop}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// selectStmt rewrites a select: channel (and send-value) operands are
// hoisted to temps before the statement — the spec evaluates them
// exactly once on entry, so this is semantics-preserving — and each
// chosen communication is logged at the top of its case body.
func (rw *rewriter) selectStmt(s *ast.SelectStmt) []ast.Stmt {
	var pre []ast.Stmt
	for _, c := range s.Body.List {
		cl := c.(*ast.CommClause)
		switch comm := cl.Comm.(type) {
		case *ast.SendStmt:
			rw.stats.Sites++
			ch := rw.fresh("__vft_c")
			v := rw.fresh("__vft_s")
			pre = append(pre,
				defineStmt(ch, rw.value(comm.Chan)),
				defineStmt(v, rw.value(comm.Value)))
			comm.Chan = ast.NewIdent(ch)
			comm.Value = ast.NewIdent(v)
			cl.Body = append([]ast.Stmt{
				exprStmt(rw.vft("SendSel", rw.g(), ast.NewIdent(ch))),
			}, cl.Body...)

		case *ast.ExprStmt: // case <-ch:
			if u, ok := comm.X.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				rw.stats.Sites++
				ch := rw.fresh("__vft_c")
				pre = append(pre, defineStmt(ch, rw.value(u.X)))
				u.X = ast.NewIdent(ch)
				cl.Body = append([]ast.Stmt{
					exprStmt(rw.vft("RecvSel", rw.g(), ast.NewIdent(ch))),
				}, cl.Body...)
			}

		case *ast.AssignStmt: // case v := <-ch: / case v, ok := <-ch:
			if u, ok := comm.Rhs[0].(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				rw.stats.Sites++
				ch := rw.fresh("__vft_c")
				pre = append(pre, defineStmt(ch, rw.value(u.X)))
				u.X = ast.NewIdent(ch)
				var log ast.Stmt
				if len(comm.Lhs) == 2 {
					if okID, ok := comm.Lhs[1].(*ast.Ident); ok && okID.Name != "_" {
						log = exprStmt(rw.vft("RecvSelOK", rw.g(), ast.NewIdent(ch), ast.NewIdent(okID.Name)))
					}
				}
				if log == nil {
					log = exprStmt(rw.vft("RecvSel", rw.g(), ast.NewIdent(ch)))
				}
				logs := append(rw.commWriteLogs(comm), log)
				cl.Body = append(logs, cl.Body...)
			}
		}
		cl.Body = rw.stmts(cl.Body)
	}
	if len(pre) == 0 {
		return one(s)
	}
	return append(pre, s)
}

// commWriteLogs emits write events for assignment-form receive cases
// (`case x = <-ch:`) whose targets are existing traced variables.
func (rw *rewriter) commWriteLogs(comm *ast.AssignStmt) []ast.Stmt {
	if comm.Tok != token.ASSIGN {
		return nil
	}
	var logs []ast.Stmt
	for _, l := range comm.Lhs {
		if isBlank(l) || !rw.addressable(l) {
			continue
		}
		if rw.decide(l) {
			logs = append(logs, exprStmt(rw.vft("WrAddr", rw.g(), strLit(rw.siteName(l)), amp(l))))
		}
	}
	return logs
}
