package analysis

// load.go is the module loader: it discovers every package directory under
// the module root, parses it (honoring build constraints, including test
// files), and type-checks it with nothing but the standard library —
// go/parser + go/types, with stdlib imports resolved by the compiler's
// source importer and module-internal imports resolved from the tree
// itself. No golang.org/x/tools, matching the repo's vendored-not-fetched
// dependency rule.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one type-checked analysis unit: a package's files together
// with the type information the checks consume. In-package test files are
// type-checked together with the package ("augmented", like the compiler
// does for `go test`); an external foo_test package is its own unit with
// Path suffixed "_test".
type Package struct {
	Path  string      // import path of the unit
	Dir   string      // directory the files live in
	Files []*ast.File // parsed files, parallel to Filenames
	// Filenames holds the absolute path of each file in Files.
	Filenames []string
	Types     *types.Package
	Info      *types.Info
}

// FileBase returns the base name of the file containing pos.
func (p *Package) FileBase(fset *token.FileSet, pos token.Pos) string {
	return filepath.Base(fset.Position(pos).Filename)
}

// Module is the loaded, type-checked module: every analysis unit plus the
// shared FileSet positions resolve against.
type Module struct {
	Path string // module path from Config
	Dir  string
	Fset *token.FileSet
	Pkgs []*Package // sorted by Path
}

// parsedFile pairs a file's absolute path with its AST.
type parsedFile struct {
	name string
	ast  *ast.File
}

// dirFiles is one directory's parsed contents, split the way the go tool
// builds them: the plain package, its in-package test files, and an
// external _test package.
type dirFiles struct {
	importPath string
	dir        string
	pkgName    string
	plain      []parsedFile // non-test files
	inTest     []parsedFile // _test.go files in the package itself
	extTest    []parsedFile // _test.go files in package <name>_test
}

// loader loads and type-checks packages. Module-internal imports resolve
// through an importView; everything else goes to the stdlib source
// importer.
type loader struct {
	cfg   *Config
	fset  *token.FileSet
	std   types.ImporterFrom
	dirs  map[string]*dirFiles // import path -> parsed dir
	plain *importView          // the plain (non-test) view every unit but an external test imports
}

// importView is a types.ImporterFrom over one set of module package
// variants. The plain view type-checks each module package from its
// non-test files, as the compiler imports it. A test view serves one
// external <pkg>_test unit the way the go tool builds its test binary:
// under resolves to the package augmented with its in-package _test.go
// files (so an export_test.go's declarations are visible), and every
// module package that imports under, directly or not, is re-checked
// against that variant, so that the unit sees one identity for under's
// types. Packages that do not import under come from the plain view.
type importView struct {
	l     *loader
	under string                    // package whose test variant this view builds; "" for the plain view
	pkgs  map[string]*types.Package // import path -> package in this view
	busy  map[string]bool           // import cycle guard
}

func (l *loader) newView(under string) *importView {
	return &importView{l: l, under: under, pkgs: make(map[string]*types.Package), busy: make(map[string]bool)}
}

// LoadModule parses and type-checks every package under cfg.Dir. Any parse
// or type error is a hard failure: invariants cannot be verified on code
// that does not compile.
func LoadModule(cfg *Config) (*Module, error) {
	fset := token.NewFileSet()
	l := &loader{
		cfg:  cfg,
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		dirs: make(map[string]*dirFiles),
	}
	l.plain = l.newView("")
	if err := l.discover(); err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	mod := &Module{Path: cfg.ModulePath, Dir: cfg.Dir, Fset: fset}
	for _, path := range paths {
		d := l.dirs[path]
		if len(d.plain)+len(d.inTest) > 0 {
			pkg, err := l.check(path, d.dir, append(append([]parsedFile(nil), d.plain...), d.inTest...), l.plain)
			if err != nil {
				return nil, err
			}
			mod.Pkgs = append(mod.Pkgs, pkg)
		}
		if len(d.extTest) > 0 {
			pkg, err := l.check(path+"_test", d.dir, d.extTest, l.newView(path))
			if err != nil {
				return nil, err
			}
			mod.Pkgs = append(mod.Pkgs, pkg)
		}
	}
	return mod, nil
}

// discover walks the module tree, parsing every buildable directory.
// testdata, vendor, hidden, and underscore-prefixed directories are
// skipped, exactly as the go tool skips them.
func (l *loader) discover() error {
	return filepath.WalkDir(l.cfg.Dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.cfg.Dir && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(l.cfg.Dir, path)
		if err != nil {
			return err
		}
		importPath := l.cfg.ModulePath
		if rel != "." {
			importPath = l.cfg.ModulePath + "/" + filepath.ToSlash(rel)
		}
		df, err := l.parseDir(importPath, path)
		if err != nil {
			return err
		}
		if df != nil {
			l.dirs[importPath] = df
		}
		return nil
	})
}

// parseDir parses the buildable .go files of one directory, split into the
// plain / in-package-test / external-test file sets. Returns nil when the
// directory holds no buildable Go files.
func (l *loader) parseDir(importPath, dir string) (*dirFiles, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	bctx := build.Default
	df := &dirFiles{importPath: importPath, dir: dir}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if ok, err := bctx.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue // excluded by build constraints (GOOS, //go:build)
		}
		full := filepath.Join(dir, name)
		f, err := parser.ParseFile(l.fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pf := parsedFile{name: full, ast: f}
		pkg := f.Name.Name
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			if df.pkgName != "" && pkg != df.pkgName {
				return nil, fmt.Errorf("%s: packages %s and %s in one directory", dir, df.pkgName, pkg)
			}
			df.pkgName = pkg
			df.plain = append(df.plain, pf)
		case strings.HasSuffix(pkg, "_test"):
			df.extTest = append(df.extTest, pf)
		default:
			df.inTest = append(df.inTest, pf)
		}
	}
	if len(df.plain)+len(df.inTest)+len(df.extTest) == 0 {
		return nil, nil
	}
	return df, nil
}

// check type-checks one analysis unit against the imports of view and
// records the type info the checks need.
func (l *loader) check(path, dir string, files []parsedFile, view *importView) (*Package, error) {
	pkg := &Package{Path: path, Dir: dir}
	asts := make([]*ast.File, len(files))
	for i, pf := range files {
		asts[i] = pf.ast
		pkg.Filenames = append(pkg.Filenames, pf.name)
	}
	pkg.Files = asts
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var errs []error
	conf := types.Config{
		Importer: view,
		Error:    func(err error) { errs = append(errs, err) },
	}
	tpkg, err := conf.Check(path, l.fset, asts, pkg.Info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %w", path, errs[0])
	}
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	pkg.Types = tpkg
	return pkg, nil
}

// Import implements types.Importer.
func (v *importView) Import(path string) (*types.Package, error) {
	return v.ImportFrom(path, v.l.cfg.Dir, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths are
// type-checked from the tree in this view's variant; everything else goes
// to the stdlib source importer.
func (v *importView) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if inModulePath(path, v.l.cfg.ModulePath) {
		return v.importModulePkg(path)
	}
	return v.l.std.ImportFrom(path, dir, mode)
}

// importModulePkg type-checks a module package in this view's variant for
// use as an import, caching the result.
func (v *importView) importModulePkg(path string) (*types.Package, error) {
	if pkg, ok := v.pkgs[path]; ok {
		return pkg, nil
	}
	if v.under != "" && path != v.under && !v.l.reaches(path, v.under, make(map[string]bool)) {
		return v.l.plain.importModulePkg(path)
	}
	if v.busy[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	v.busy[path] = true
	defer delete(v.busy, path)
	df, ok := v.l.dirs[path]
	if !ok || len(df.plain) == 0 {
		return nil, fmt.Errorf("no package %s under %s", path, v.l.cfg.Dir)
	}
	files := df.plain
	if path == v.under {
		files = append(append([]parsedFile(nil), df.plain...), df.inTest...)
	}
	asts := make([]*ast.File, len(files))
	for i, pf := range files {
		asts[i] = pf.ast
	}
	var errs []error
	conf := types.Config{
		Importer: v,
		Error:    func(err error) { errs = append(errs, err) },
	}
	pkg, err := conf.Check(path, v.l.fset, asts, nil)
	if len(errs) > 0 {
		return nil, fmt.Errorf("type-checking import %s: %w", path, errs[0])
	}
	if err != nil {
		return nil, fmt.Errorf("type-checking import %s: %w", path, err)
	}
	v.pkgs[path] = pkg
	return pkg, nil
}

// reaches reports whether the plain files of module package from import
// target, directly or through other module packages. seen guards the walk.
func (l *loader) reaches(from, target string, seen map[string]bool) bool {
	if seen[from] {
		return false
	}
	seen[from] = true
	df, ok := l.dirs[from]
	if !ok {
		return false
	}
	for _, pf := range df.plain {
		for _, imp := range pf.ast.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil || !inModulePath(p, l.cfg.ModulePath) {
				continue
			}
			if p == target || l.reaches(p, target, seen) {
				return true
			}
		}
	}
	return false
}
