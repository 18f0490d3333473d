package analysis

// idxread: Tuple.home (and the older Tuple.idx) are *writer-epoch* fields
// of the snapshot contract: the rank order's splits and merges re-home
// tuples in place, including tuples shared with older epochs, so the
// back-pointers are only coherent for the newest epoch and reading them
// from any reader path is a data race waiting for -race to interleave.
// This check flags every read of the configured fields on the uncertain
// Tuple type outside the whitelisted writer files (which includes
// tuple.go, where the documented Index accessor lives). Writes are
// frozenwrite's jurisdiction; here a selector used solely as an assignment
// target is ignored.

import (
	"go/ast"
)

func runIdxRead(p *Pass) {
	for _, f := range p.Pkg.Files {
		// Selectors consumed as plain assignment targets are writes.
		writes := make(map[*ast.SelectorExpr]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
						writes[sel] = true
					}
				}
			case *ast.IncDecStmt:
				// ++/-- both reads and writes; treat as writer-only usage
				// (frozenwrite covers it).
				if sel, ok := ast.Unparen(st.X).(*ast.SelectorExpr); ok {
					writes[sel] = true
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !inStrings(sel.Sel.Name, p.Cfg.IdxFields) || writes[sel] {
				return true
			}
			if p.fieldSel(sel) == nil {
				return true
			}
			typeName, ok := p.isFrozenType(p.Pkg.Info.Types[sel.X].Type)
			if !ok || typeName != "Tuple" {
				return true
			}
			if p.inUncertainFiles(sel, p.Cfg.IdxFiles) {
				return true
			}
			p.Reportf(sel.Pos(),
				"read of Tuple.%s outside the writer files: it is a writer-epoch field repaired in place under snapshots; derive rank positions from the scan order (or Tuple.Index on the live epoch)",
				sel.Sel.Name)
			return true
		})
	}
}
