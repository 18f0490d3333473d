package analysis

// ctxdiscipline: library code must accept and thread the caller's
// context.Context — a context.Background() (or TODO()) buried in a
// library call breaks cancellation for every server above it, which is
// exactly what PR 1 threaded ctx through all the planning hot loops to
// get. Binaries and examples own their lifecycles and are exempt by
// import-path prefix (Config.CtxExempt); test files are exempt (tests own
// their lifecycles too). Any other exception needs an explicit
// //lint:allow annotation with a reason.

import (
	"go/ast"
	"strings"
)

func runCtxDiscipline(p *Pass) {
	for _, prefix := range p.Cfg.CtxExempt {
		if strings.HasPrefix(p.Pkg.Path, prefix) || p.Pkg.Path+"/" == prefix {
			return
		}
	}
	for i, f := range p.Pkg.Files {
		if strings.HasSuffix(p.Pkg.Filenames[i], "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := p.calleeFunc(call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
				return true
			}
			if name := fn.Name(); name == "Background" || name == "TODO" {
				p.Reportf(call.Pos(),
					"context.%s() in a library package: accept a ctx and thread it through (a deliberate exception needs a //lint:allow %s with a reason)",
					name, p.check)
			}
			return true
		})
	}
}
