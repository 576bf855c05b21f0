// Package errdrop forbids silently discarded errors on the serving
// and persistence paths: HTTP handlers (internal/server), the proxy
// forward path (internal/router), the HTTP front both serve through
// (internal/httpfront), the artifact store (internal/artifact), and the
// workload registry (internal/registry). These are exactly the places where a dropped
// error turns into a wrong response or silent data loss — a Marshal
// error swallowed in a handler serves an empty body with a 200, a
// dropped write error persists a truncated artifact — and where PR 6
// (silent body truncation) and PR 5 (cache error joins) have already
// paid for the pattern once.
//
// Two shapes are flagged:
//
//   - an assignment that sends an error result to the blank
//     identifier (`body, _ := json.Marshal(x)`, `_ = f()`), and
//   - an expression statement whose call returns an error that
//     nobody reads (`enc.Encode(v)` as a whole statement).
//
// Deferred calls are exempt: `defer f.Close()` on a read-side file is
// the accepted idiom. fmt.Fprint/Fprintf/Fprintln in statement
// position are exempt too — the plaintext metrics dumps are a wall of
// Fprintf calls to an http.ResponseWriter, and a short write there is
// a client disconnect nothing server-side can act on. Genuinely
// best-effort calls — cleanup where failure is the desired no-op —
// take //folint:allow(errdrop) with the reason failure is acceptable.
package errdrop

import (
	"go/ast"
	"go/types"

	"fomodel/internal/lint/analysis"
)

// Packages scopes the analyzer to the error-critical paths.
var Packages = map[string]bool{
	"fomodel/internal/server":    true,
	"fomodel/internal/router":    true,
	"fomodel/internal/httpfront": true,
	"fomodel/internal/artifact":  true,
	"fomodel/internal/registry":  true,
}

// Analyzer is the errdrop pass.
var Analyzer = &analysis.Analyzer{
	Name: "errdrop",
	Doc:  "forbid discarded errors in handlers, the router forward path, and the artifact store",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !Packages[pass.Pkg.Path()] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				checkAssign(pass, n)
			case *ast.ExprStmt:
				checkExprStmt(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkAssign flags blank identifiers receiving error values.
func checkAssign(pass *analysis.Pass, asg *ast.AssignStmt) {
	// Case 1: one multi-value call on the right.
	if len(asg.Rhs) == 1 && len(asg.Lhs) > 1 {
		tuple, ok := pass.TypesInfo.Types[asg.Rhs[0]].Type.(*types.Tuple)
		if !ok || tuple.Len() != len(asg.Lhs) {
			return
		}
		for i, lhs := range asg.Lhs {
			if isBlank(lhs) && analysis.IsErrorType(tuple.At(i).Type()) {
				pass.Reportf(lhs.Pos(), "error result of %s discarded with _: handle it or annotate why failure is acceptable here",
					callName(pass, asg.Rhs[0]))
			}
		}
		return
	}
	// Case 2: parallel assignment, element-wise.
	if len(asg.Lhs) == len(asg.Rhs) {
		for i, lhs := range asg.Lhs {
			if !isBlank(lhs) {
				continue
			}
			tv, ok := pass.TypesInfo.Types[asg.Rhs[i]]
			if ok && analysis.IsErrorType(tv.Type) {
				pass.Reportf(lhs.Pos(), "error value of %s discarded with _: handle it or annotate why failure is acceptable here",
					callName(pass, asg.Rhs[i]))
			}
		}
	}
}

// checkExprStmt flags statement-level calls whose error results are
// implicitly dropped.
func checkExprStmt(pass *analysis.Pass, stmt *ast.ExprStmt) {
	call, ok := ast.Unparen(stmt.X).(*ast.CallExpr)
	if !ok {
		return
	}
	if analysis.IsPkgFunc(pass.TypesInfo, call, "fmt", "Fprint", "Fprintf", "Fprintln") {
		return
	}
	tv, ok := pass.TypesInfo.Types[call]
	if !ok {
		return
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if analysis.IsErrorType(t.At(i).Type()) {
				pass.Reportf(call.Pos(), "error result of %s ignored: handle it or annotate why failure is acceptable here",
					callName(pass, call))
				return
			}
		}
	default:
		if analysis.IsErrorType(tv.Type) {
			pass.Reportf(call.Pos(), "error result of %s ignored: handle it or annotate why failure is acceptable here",
				callName(pass, call))
		}
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// callName renders a short name for the offending call.
func callName(pass *analysis.Pass, e ast.Expr) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "expression"
	}
	if f := analysis.Callee(pass.TypesInfo, call); f != nil {
		if _, typ := analysis.RecvTypeName(f); typ != "" {
			return typ + "." + f.Name()
		}
		if f.Pkg() != nil && f.Pkg() != pass.Pkg {
			return f.Pkg().Name() + "." + f.Name()
		}
		return f.Name()
	}
	return types.ExprString(call.Fun)
}
