package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// pathIs reports whether a package import path matches pat at a path-segment
// boundary, e.g. pathIs("jackpine/internal/geom", "internal/geom"). Matching
// by suffix keeps the analyzers independent of the module name, which lets
// the testdata fixtures mirror real package layouts.
func pathIs(path, pat string) bool {
	return path == pat || strings.HasSuffix(path, "/"+pat)
}

// pathUnder reports whether path is pat itself or any package below it.
func pathUnder(path, pat string) bool {
	return pathIs(path, pat) || strings.Contains(path+"/", "/"+pat+"/")
}

// pkgMatches reports whether the pass's package matches any pattern.
func pkgMatches(pass *Pass, pats ...string) bool {
	for _, p := range pats {
		if pathIs(pass.Pkg.Path(), p) {
			return true
		}
	}
	return false
}

// callee resolves the object a call expression invokes: a package-level
// function, a method, or nil when the callee is dynamic (function values,
// builtins, conversions).
func callee(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj()
		}
		// Qualified identifier (pkg.Func).
		return info.Uses[fun.Sel]
	}
	return nil
}

// calleeIs reports whether call invokes a function named name declared in a
// package matching pkgPat (segment-boundary suffix match, see pathIs).
func calleeIs(info *types.Info, call *ast.CallExpr, pkgPat, name string) bool {
	obj := callee(info, call)
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Name() == name && pathIs(obj.Pkg().Path(), pkgPat)
}

// isNamedType reports whether t (after pointer indirection) is the named
// type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// isFloat reports whether t's underlying type is a floating-point type.
func isFloat(t types.Type) bool {
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}

// errorIface is the built-in error interface.
var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// implementsError reports whether t satisfies the error interface.
func implementsError(t types.Type) bool {
	if t == nil {
		return false
	}
	if basic, ok := t.(*types.Basic); ok && basic.Kind() == types.UntypedNil {
		return false
	}
	return types.Implements(t, errorIface)
}

// funcDecls yields every function declaration with a body in the package.
func funcDecls(pass *Pass, fn func(decl *ast.FuncDecl)) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}
