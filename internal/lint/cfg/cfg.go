// Package cfg builds per-function control-flow graphs over go/ast, the
// flow-sensitive substrate the almvet suite's timerflow and allocflow
// analyzers stand on. Like the rest of internal/lint it is
// stdlib-only (the repo builds offline), mirroring the shape of
// golang.org/x/tools/go/cfg closely enough that analyzers could be
// ported by changing one import.
//
// A Graph is a set of basic Blocks. Each block carries the statements
// and control expressions that execute in it, in source order, and the
// set of successor blocks control may transfer to. One synthetic Exit
// block terminates the graph: return statements, falls off the end of
// the body, and builtin panic calls all edge there, so "every path to
// exit" questions reduce to "every path to g.Exit".
//
// The builder understands the full statement grammar the repo uses:
// if/else chains, for and range loops (labeled or not), switch, type
// switch and select, break/continue (labeled or not), goto, fallthrough,
// defer, and go. Deferred calls are additionally collected in
// Graph.Defers because they run at function exit regardless of which
// path reached it — path-sensitive analyzers (timerflow's leak check)
// treat them as a postlude on every exit edge.
package cfg

import (
	"go/ast"
	"go/token"
)

// Block is one basic block.
type Block struct {
	// Index is the block's position in Graph.Blocks. Blocks are numbered
	// in creation order, which follows source order closely enough that
	// iterating by index is deterministic across runs and Go versions.
	Index int

	// Kind is a human-readable tag ("entry", "if.then", "range.body",
	// ...) used by tests and debug dumps.
	Kind string

	// Nodes holds the statements and control expressions executed in
	// this block, in execution order. Control expressions (an if or for
	// condition, a switch tag, a range operand) appear as bare ast.Expr
	// entries ahead of the branch they guard.
	Nodes []ast.Node

	// Succs are the blocks control may transfer to after this one.
	Succs []*Block
}

// Graph is the control-flow graph of one function body.
type Graph struct {
	Entry *Block
	// Exit is the synthetic sink every return path edges to.
	Exit   *Block
	Blocks []*Block

	// Defers collects defer statements in source order; they execute at
	// every exit from the function.
	Defers []*ast.DeferStmt
}

// New builds the CFG of one function body (from an *ast.FuncDecl or
// *ast.FuncLit). A nil body yields a graph whose entry edges straight to
// exit.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{g: &Graph{}, labels: map[string]*labelInfo{}}
	b.g.Entry = b.newBlock("entry")
	b.g.Exit = b.newBlock("exit")
	b.cur = b.g.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	// Falling off the end of the body returns.
	b.edge(b.cur, b.g.Exit)
	b.resolveGotos()
	return b.g
}

// Reachable returns the set of blocks reachable from the entry block.
// Analyzers use it to ignore effects in dead code (statements after an
// unconditional return, unlabeled break tails, ...).
func (g *Graph) Reachable() map[*Block]bool {
	seen := map[*Block]bool{g.Entry: true}
	work := []*Block{g.Entry}
	for len(work) > 0 {
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range blk.Succs {
			if !seen[s] {
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	return seen
}

// labelInfo tracks one label's targets while its statement is being built.
type labelInfo struct {
	// block is the jump target of `goto label`.
	block *Block
	// brk/cont are the targets of labeled break/continue; nil outside a
	// breakable/continuable statement.
	brk, cont *Block
}

// loopFrame is one enclosing breakable construct. continueTo is nil for
// switch/select frames (continue skips them and binds to the loop).
type loopFrame struct {
	breakTo    *Block
	continueTo *Block
}

type gotoFixup struct {
	from  *Block
	label string
	pos   token.Pos
}

type builder struct {
	g      *Graph
	cur    *Block
	frames []loopFrame
	labels map[string]*labelInfo
	gotos  []gotoFixup

	// pendingLabel is set while building the statement a LabeledStmt
	// wraps, so the loop/switch builder can register labeled
	// break/continue targets.
	pendingLabel string
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// startDetached begins an unreachable block (the code after a return,
// break, or goto). It stays in Blocks so its statements remain visible to
// syntactic passes, but has no predecessors.
func (b *builder) startDetached(kind string) {
	b.cur = b.newBlock(kind + ".unreachable")
}

func (b *builder) add(n ast.Node) { b.cur.Nodes = append(b.cur.Nodes, n) }

func (b *builder) stmtList(stmts []ast.Stmt) {
	for _, s := range stmts {
		b.stmt(s)
	}
}

// takeLabel consumes the pending label for the construct being built and
// registers its break/continue targets.
func (b *builder) takeLabel(brk, cont *Block) string {
	name := b.pendingLabel
	b.pendingLabel = ""
	if name != "" {
		li := b.labels[name]
		li.brk, li.cont = brk, cont
	}
	return name
}

func (b *builder) releaseLabel(name string) {
	if name != "" {
		li := b.labels[name]
		li.brk, li.cont = nil, nil
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		// The label is both a goto target and (if it wraps a loop,
		// switch, or select) a break/continue qualifier.
		target := b.newBlock("label." + s.Label.Name)
		b.edge(b.cur, target)
		b.cur = target
		if li, ok := b.labels[s.Label.Name]; ok {
			li.block = target
		} else {
			b.labels[s.Label.Name] = &labelInfo{block: target}
		}
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		condBlk := b.cur
		join := b.newBlock("if.join")
		thenBlk := b.newBlock("if.then")
		b.edge(condBlk, thenBlk)
		b.cur = thenBlk
		b.stmtList(s.Body.List)
		b.edge(b.cur, join)
		if s.Else != nil {
			elseBlk := b.newBlock("if.else")
			b.edge(condBlk, elseBlk)
			b.cur = elseBlk
			b.stmt(s.Else)
			b.edge(b.cur, join)
		} else {
			b.edge(condBlk, join)
		}
		b.cur = join

	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock("for.head")
		b.edge(b.cur, head)
		join := b.newBlock("for.join")
		post := head
		if s.Post != nil {
			post = b.newBlock("for.post")
			post.Nodes = append(post.Nodes, s.Post)
			b.edge(post, head)
		}
		label := b.takeLabel(join, post)
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
			b.edge(head, join)
		}
		body := b.newBlock("for.body")
		b.edge(head, body)
		b.frames = append(b.frames, loopFrame{breakTo: join, continueTo: post})
		b.cur = body
		b.stmtList(s.Body.List)
		b.frames = b.frames[:len(b.frames)-1]
		b.releaseLabel(label)
		b.edge(b.cur, post)
		b.cur = join

	case *ast.RangeStmt:
		head := b.newBlock("range.head")
		b.edge(b.cur, head)
		// The range statement itself models operand evaluation plus the
		// per-iteration key/value assignment.
		head.Nodes = append(head.Nodes, s)
		join := b.newBlock("range.join")
		b.edge(head, join) // zero iterations
		body := b.newBlock("range.body")
		b.edge(head, body)
		label := b.takeLabel(join, head)
		b.frames = append(b.frames, loopFrame{breakTo: join, continueTo: head})
		b.cur = body
		b.stmtList(s.Body.List)
		b.frames = b.frames[:len(b.frames)-1]
		b.releaseLabel(label)
		b.edge(b.cur, head)
		b.cur = join

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.buildSwitch(s.Body.List, false)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.buildSwitch(s.Body.List, false)

	case *ast.SelectStmt:
		b.buildSwitch(s.Body.List, true)

	case *ast.BranchStmt:
		b.add(s)
		switch s.Tok {
		case token.BREAK:
			if s.Label != nil {
				if li, ok := b.labels[s.Label.Name]; ok && li.brk != nil {
					b.edge(b.cur, li.brk)
				}
			} else if n := len(b.frames); n > 0 {
				b.edge(b.cur, b.frames[n-1].breakTo)
			}
			b.startDetached("break")
		case token.CONTINUE:
			if s.Label != nil {
				if li, ok := b.labels[s.Label.Name]; ok && li.cont != nil {
					b.edge(b.cur, li.cont)
				}
			} else {
				// continue binds to the innermost *loop* frame.
				for i := len(b.frames) - 1; i >= 0; i-- {
					if b.frames[i].continueTo != nil {
						b.edge(b.cur, b.frames[i].continueTo)
						break
					}
				}
			}
			b.startDetached("continue")
		case token.GOTO:
			b.gotos = append(b.gotos, gotoFixup{from: b.cur, label: s.Label.Name, pos: s.Pos()})
			b.startDetached("goto")
		case token.FALLTHROUGH:
			// Handled structurally by buildSwitch (the next case body is
			// already this block's successor); nothing to do here.
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.g.Exit)
		b.startDetached("return")

	case *ast.DeferStmt:
		b.add(s)
		b.g.Defers = append(b.g.Defers, s)

	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.edge(b.cur, b.g.Exit)
			b.startDetached("panic")
		}

	default:
		// Leaf statements: assignments, declarations, go, send, incdec,
		// empty. They execute straight through.
		b.add(s)
	}
}

// buildSwitch lowers the case clauses of a switch, type switch, or
// select. Every clause is a successor of the current block; without a
// default clause the head also edges to the join (no case matched).
// Fallthrough chains a case body into the next clause's body.
func (b *builder) buildSwitch(clauses []ast.Stmt, isSelect bool) {
	head := b.cur
	join := b.newBlock("switch.join")
	label := b.takeLabel(join, nil)
	b.frames = append(b.frames, loopFrame{breakTo: join})

	// Create all clause bodies first so fallthrough can edge forward.
	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		bodies[i] = b.newBlock("case.body")
		b.edge(head, bodies[i])
		switch cc := c.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				hasDefault = true
			}
			// Case expressions are evaluated in the head.
			for _, e := range cc.List {
				head.Nodes = append(head.Nodes, e)
			}
		case *ast.CommClause:
			if cc.Comm == nil {
				hasDefault = true
			} else {
				bodies[i].Nodes = append(bodies[i].Nodes, cc.Comm)
			}
		}
	}
	if !hasDefault && !isSelect {
		b.edge(head, join)
	}
	if !hasDefault && isSelect {
		// A select without default blocks until some case is ready; all
		// paths go through a clause.
		_ = head
	}
	for i, c := range clauses {
		var list []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			list = cc.Body
		case *ast.CommClause:
			list = cc.Body
		}
		b.cur = bodies[i]
		fallsThrough := false
		for _, st := range list {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
			}
			b.stmt(st)
		}
		if fallsThrough && i+1 < len(bodies) {
			b.edge(b.cur, bodies[i+1])
			b.cur = b.newBlock("fallthrough.done")
		}
		b.edge(b.cur, join)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.releaseLabel(label)
	b.cur = join
}

func (b *builder) resolveGotos() {
	for _, g := range b.gotos {
		if li, ok := b.labels[g.label]; ok && li.block != nil {
			b.edge(g.from, li.block)
		}
	}
}

// isPanicCall reports whether e is a direct call of the builtin panic.
// (A type-unaware check: a local function named panic would shadow it,
// which the repo does not do — and treating it as terminating is the
// conservative direction for reachability anyway.)
func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
