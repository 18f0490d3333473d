package analysis

// maporder: the bit-identity contract (leader == follower == recovery,
// byte for byte; DESIGN.md, PERSISTENCE.md) dies silently the moment a
// `for k, v := range m` accumulates floats, appends results, or writes
// wire bytes in map order — Go randomizes iteration on purpose, so the
// same state can produce different bytes on every run. The incident that
// motivated the check is internal/quality's possible-world distribution
// summing probabilities in map order: float addition is not associative,
// so two runs over the same snapshot could disagree in the last ulp and
// fail the replica digest comparison.
//
// Within the configured byte-identity packages (test files exempt — they
// compare, they don't produce), the check flags three order-sensitive
// effects inside a range-over-map body:
//
//   - compound assignment accumulating a float (+=, -=, *=, /=);
//   - append of anything but the bare range key/value — and even that is
//     flagged unless the collected slice is later passed to a sort call
//     (the collect-keys-then-sort idiom is the blessed fix);
//   - writes through an encoder/writer/response (fmt.Fprint*,
//     json Encoder.Encode, Write/WriteString/... methods).
//
// Map writes and deletes are not flagged: they land in a map, which has no
// order to corrupt. Everything else needs sorted keys or a reasoned
// //lint:allow maporder explaining why order is immaterial.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

func runMapOrder(p *Pass) {
	if !inStrings(trimTestPath(p.Pkg.Path), p.Cfg.MapOrderPkgs) {
		return
	}
	for i, f := range p.Pkg.Files {
		if strings.HasSuffix(p.Pkg.Filenames[i], "_test.go") {
			continue
		}
		// Walk per enclosing function body so the sorted-later exemption
		// searches the right scope; literals are visited as their own
		// bodies.
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body == nil {
				return true
			}
			p.scanMapRanges(body)
			return true
		})
	}
}

// scanMapRanges finds range-over-map statements directly inside body
// (skipping nested literals, which are scanned as their own bodies) and
// checks each.
func (p *Pass) scanMapRanges(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := p.Pkg.Info.Types[rs.X]
		if !ok || tv.Type == nil {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		p.checkMapRange(body, rs)
		return true
	})
}

// checkMapRange flags the order-sensitive effects in one range-over-map
// body.
func (p *Pass) checkMapRange(scope *ast.BlockStmt, rs *ast.RangeStmt) {
	keyObj := p.rangeVarObj(rs.Key, rs.Tok)
	valObj := p.rangeVarObj(rs.Value, rs.Tok)
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			switch x.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				if len(x.Lhs) == 1 && p.isFloatExpr(x.Lhs[0]) {
					p.Reportf(x.Pos(),
						"float accumulated in map-iteration order: addition is not associative, so repeated runs can differ in the last ulp and break bit-identity; iterate sorted keys (or //lint:allow maporder <why order is immaterial>)")
				}
			}
		case *ast.CallExpr:
			p.checkMapRangeCall(scope, rs, x, keyObj, valObj)
		}
		return true
	})
}

// checkMapRangeCall flags one call inside a range-over-map body if it is
// an order-sensitive append or a writer/encoder emission.
func (p *Pass) checkMapRangeCall(scope *ast.BlockStmt, rs *ast.RangeStmt, call *ast.CallExpr,
	keyObj, valObj types.Object) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isBuiltin := p.Pkg.Info.Uses[id].(*types.Builtin); isBuiltin && b.Name() == "append" && len(call.Args) > 0 {
			// Collect-then-sort idiom: appending only the bare range
			// key/value into a slice that is sorted after the loop is the
			// blessed fix, not a violation.
			if p.appendsOnlyRangeVars(call, keyObj, valObj) &&
				p.sortedAfter(scope, types.ExprString(call.Args[0]), rs.End()) {
				return
			}
			p.Reportf(call.Pos(),
				"append in map-iteration order: the slice's element order changes run to run and breaks bit-identity; collect keys, sort them, then iterate (or //lint:allow maporder <why order is immaterial>)")
			return
		}
	}
	fn := p.calleeFunc(call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	full := fn.FullName()
	switch {
	case full == "fmt.Fprint" || full == "fmt.Fprintf" || full == "fmt.Fprintln",
		full == "(*encoding/json.Encoder).Encode":
	default:
		sig, _ := fn.Type().(*types.Signature)
		if sig == nil || sig.Recv() == nil || !writerMethods[fn.Name()] {
			return
		}
	}
	p.Reportf(call.Pos(),
		"%s emits bytes in map-iteration order: wire and response output must be bit-identical across runs; iterate sorted keys (or //lint:allow maporder <why order is immaterial>)",
		full)
}

// writerMethods are emission methods whose call order becomes byte order.
var writerMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"WriteHeader": true,
}

// rangeVarObj resolves a range clause variable to its object: a definition
// under :=, a use under =.
func (p *Pass) rangeVarObj(e ast.Expr, tok token.Token) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if tok == token.DEFINE {
		return p.Pkg.Info.Defs[id]
	}
	return p.Pkg.Info.Uses[id]
}

// appendsOnlyRangeVars reports whether every appended value is the bare
// range key or value variable.
func (p *Pass) appendsOnlyRangeVars(call *ast.CallExpr, keyObj, valObj types.Object) bool {
	if len(call.Args) < 2 {
		return false
	}
	for _, arg := range call.Args[1:] {
		id, ok := ast.Unparen(arg).(*ast.Ident)
		if !ok {
			return false
		}
		obj := p.Pkg.Info.Uses[id]
		if obj == nil || (obj != keyObj && obj != valObj) {
			return false
		}
	}
	return true
}

// sortedAfter reports whether, after pos, the enclosing function passes
// target to a sorting call: anything in package sort or slices, or a
// callee whose name starts with "sort" (local helpers such as quality's
// sortDist).
func (p *Pass) sortedAfter(scope *ast.BlockStmt, target string, pos token.Pos) bool {
	found := false
	ast.Inspect(scope, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		fn := p.calleeFunc(call)
		if fn == nil {
			return true
		}
		sortish := strings.HasPrefix(strings.ToLower(fn.Name()), "sort")
		if fn.Pkg() != nil && (fn.Pkg().Path() == "sort" || fn.Pkg().Path() == "slices") {
			sortish = true
		}
		if !sortish {
			return true
		}
		for _, arg := range call.Args {
			if types.ExprString(arg) == target {
				found = true
				break
			}
		}
		return true
	})
	return found
}

// isFloatExpr reports whether e's type is (or aliases) a floating-point
// basic type.
func (p *Pass) isFloatExpr(e ast.Expr) bool {
	tv, ok := p.Pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
