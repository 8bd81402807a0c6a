package lint

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
	"strings"
)

// newInfo allocates the types.Info maps the analyzers rely on.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// stdImporter returns the standard library importer. The "source" compiler
// mode type-checks GOROOT packages from source, so no pre-compiled export
// data is required — the only external ingredient is the Go toolchain's own
// source tree.
func stdImporter(fset *token.FileSet) types.ImporterFrom {
	return importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
}

// chainImporter resolves module-internal import paths from the already
// type-checked packages and delegates everything else (the standard
// library) to the source importer.
type chainImporter struct {
	modPath  string
	pkgs     map[string]*types.Package
	fallback types.ImporterFrom
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	return c.ImportFrom(path, "", 0)
}

func (c *chainImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := c.pkgs[path]; ok {
		return p, nil
	}
	if path == c.modPath || strings.HasPrefix(path, c.modPath+"/") {
		return nil, fmt.Errorf("lint: module package %q not loaded before its importer (import cycle?)", path)
	}
	return c.fallback.ImportFrom(path, dir, mode)
}

// parsedDir is one directory's worth of non-test Go files before type
// checking.
type parsedDir struct {
	dir     string
	path    string // import path
	name    string
	files   []*ast.File
	imports map[string]bool // module-internal imports only
}

// LoadModule parses and type-checks every non-test package under the
// module rooted at root (the directory containing go.mod). testdata,
// hidden and underscore-prefixed directories are skipped.
func LoadModule(root string) (*Program, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()

	var dirs []*parsedDir
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		base := filepath.Base(p)
		if p != root && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
			return filepath.SkipDir
		}
		pd, err := parseDir(fset, p, root, modPath)
		if err != nil {
			return err
		}
		if pd != nil {
			dirs = append(dirs, pd)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sorted, err := topoSort(dirs)
	if err != nil {
		return nil, err
	}

	prog := &Program{Fset: fset, byPath: make(map[string]*Package)}
	chain := &chainImporter{
		modPath:  modPath,
		pkgs:     make(map[string]*types.Package),
		fallback: stdImporter(fset),
	}
	for _, pd := range sorted {
		pkg, err := check(fset, chain, pd)
		if err != nil {
			return nil, err
		}
		chain.pkgs[pd.path] = pkg.Types
		prog.Pkgs = append(prog.Pkgs, pkg)
		prog.byPath[pkg.Path] = pkg
	}
	sort.Slice(prog.Pkgs, func(i, j int) bool { return prog.Pkgs[i].Path < prog.Pkgs[j].Path })
	return prog, nil
}

// LoadDir parses and type-checks the single package in dir under the given
// import path. Imports are restricted to the standard library; used by the
// analyzer unit tests to load testdata packages.
func LoadDir(dir, path string) (*Program, error) {
	fset := token.NewFileSet()
	pd, err := parseDir(fset, dir, dir, path)
	if err != nil {
		return nil, err
	}
	if pd == nil {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	pd.path = path
	pkg, err := check(fset, stdImporter(fset), pd)
	if err != nil {
		return nil, err
	}
	prog := &Program{Fset: fset, Pkgs: []*Package{pkg}, byPath: map[string]*Package{path: pkg}}
	return prog, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// parseDir parses the non-test Go files directly inside dir. Returns nil if
// the directory holds no Go files.
func parseDir(fset *token.FileSet, dir, root, modPath string) (*parsedDir, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		// Only the files the build compiles here: a _GOOS/_GOARCH name
		// or a //go:build line can exclude a file, and its excluded
		// twin declares the same names.
		ok, err := build.Default.MatchFile(dir, n)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if !ok {
			continue
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil, nil
	}
	sort.Strings(names)

	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	path := modPath
	if rel != "." {
		path = modPath + "/" + filepath.ToSlash(rel)
	}
	pd := &parsedDir{dir: dir, path: path, imports: make(map[string]bool)}
	for _, n := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if pd.name == "" {
			pd.name = f.Name.Name
		} else if pd.name != f.Name.Name {
			return nil, fmt.Errorf("lint: %s: conflicting package names %q and %q", dir, pd.name, f.Name.Name)
		}
		pd.files = append(pd.files, f)
		for _, imp := range f.Imports {
			ip := strings.Trim(imp.Path.Value, `"`)
			if ip == modPath || strings.HasPrefix(ip, modPath+"/") {
				pd.imports[ip] = true
			}
		}
	}
	return pd, nil
}

// topoSort orders packages so every module-internal import precedes its
// importer.
func topoSort(dirs []*parsedDir) ([]*parsedDir, error) {
	byPath := make(map[string]*parsedDir, len(dirs))
	for _, d := range dirs {
		byPath[d.path] = d
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	state := make(map[string]int)
	var out []*parsedDir
	var visit func(d *parsedDir) error
	visit = func(d *parsedDir) error {
		switch state[d.path] {
		case gray:
			return fmt.Errorf("lint: import cycle through %s", d.path)
		case black:
			return nil
		}
		state[d.path] = gray
		deps := make([]string, 0, len(d.imports))
		for ip := range d.imports {
			deps = append(deps, ip)
		}
		sort.Strings(deps)
		for _, ip := range deps {
			if dep, ok := byPath[ip]; ok {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[d.path] = black
		out = append(out, d)
		return nil
	}
	sort.Slice(dirs, func(i, j int) bool { return dirs[i].path < dirs[j].path })
	for _, d := range dirs {
		if err := visit(d); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// check type-checks one parsed package.
func check(fset *token.FileSet, imp types.Importer, pd *parsedDir) (*Package, error) {
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pd.path, fset, pd.files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", pd.path, err)
	}
	return &Package{
		Path:  pd.path,
		Name:  pd.name,
		Dir:   pd.dir,
		Files: pd.files,
		Types: tpkg,
		Info:  info,
	}, nil
}
