// Package ctxflow enforces context discipline on the serving path: a
// function that accepts a context.Context must actually thread it
// into the work it does, and fresh root contexts must not be minted
// in library code. A dropped context is an invisible bug here — the
// daemon's deadline, the proxy's failover cancellation, and the
// client-disconnect propagation all ride on ctx reaching every
// blocking call, and a context.Background() buried in a library
// silently detaches everything below it from cancellation.
//
// Three rules:
//
//   - context.Background() and context.TODO() are forbidden outside
//     package main (tests are exempt; the driver drops _test.go
//     diagnostics). Library code receives its context.
//   - a named context.Context parameter must be used somewhere in the
//     function body; an ignored ctx means some call below is blocking
//     without cancellation. Rename the parameter to _ (a deliberate,
//     visible choice) or annotate if an interface forces the shape.
//   - inside a function that has a context, construct requests and
//     commands with the ctx-aware constructors (http.NewRequestWithContext,
//     exec.CommandContext), not their detached cousins.
package ctxflow

import (
	"go/ast"
	"go/types"

	"fomodel/internal/lint/analysis"
)

// Analyzer is the ctxflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "require received contexts to be threaded into blocking work; forbid fresh root contexts outside main",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkRootContext(pass, n)
			case *ast.FuncDecl:
				if n.Body != nil {
					checkFunc(pass, n.Type, n.Body)
				}
			case *ast.FuncLit:
				checkFunc(pass, n.Type, n.Body)
			}
			return true
		})
	}
	return nil
}

// checkRootContext flags context.Background()/TODO() outside main.
func checkRootContext(pass *analysis.Pass, call *ast.CallExpr) {
	if pass.Pkg.Name() == "main" {
		return
	}
	if analysis.IsPkgFunc(pass.TypesInfo, call, "context", "Background", "TODO") {
		name := analysis.Callee(pass.TypesInfo, call).Name()
		pass.Reportf(call.Pos(), "context.%s() outside package main: accept a ctx from the caller so cancellation and deadlines propagate", name)
	}
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// checkFunc applies the per-function rules to one declaration or
// literal with a context parameter.
func checkFunc(pass *analysis.Pass, ftype *ast.FuncType, body *ast.BlockStmt) {
	var ctxParams []*ast.Ident
	if ftype.Params != nil {
		for _, field := range ftype.Params.List {
			tv, ok := pass.TypesInfo.Types[field.Type]
			if !ok || !isContextType(tv.Type) {
				continue
			}
			for _, name := range field.Names {
				if name.Name != "_" {
					ctxParams = append(ctxParams, name)
				}
			}
		}
	}
	if len(ctxParams) == 0 {
		return
	}

	// Usage counts anywhere below, including closures that capture ctx.
	used := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Uses[id]; obj != nil {
				used[obj] = true
			}
		}
		return true
	})
	// Constructor checks stay within this function's own statements:
	// nested literals are visited on their own by run, so each call
	// site is judged (and reported) exactly once, against the
	// signature of the function that directly contains it.
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			checkDetachedConstructor(pass, call)
		}
		return true
	})
	for _, p := range ctxParams {
		obj := pass.TypesInfo.Defs[p]
		if obj != nil && !used[obj] {
			pass.Reportf(p.Pos(), "context parameter %s is never used: thread it into the blocking calls below, or rename it to _ to declare the drop deliberate", p.Name)
		}
	}
}

// checkDetachedConstructor flags ctx-less constructors inside
// functions that do have a context available.
func checkDetachedConstructor(pass *analysis.Pass, call *ast.CallExpr) {
	info := pass.TypesInfo
	switch {
	case analysis.IsPkgFunc(info, call, "net/http", "NewRequest"):
		pass.Reportf(call.Pos(), "http.NewRequest in a function that has a ctx: use http.NewRequestWithContext so the request is cancellable")
	case analysis.IsPkgFunc(info, call, "net/http", "Get", "Post", "Head", "PostForm"):
		pass.Reportf(call.Pos(), "http.%s uses the background context: build the request with http.NewRequestWithContext and the function's ctx",
			analysis.Callee(info, call).Name())
	case analysis.IsPkgFunc(info, call, "os/exec", "Command"):
		pass.Reportf(call.Pos(), "exec.Command in a function that has a ctx: use exec.CommandContext so the child is killed on cancellation")
	}
}
