package mmconf_bench

// The design tests read the source tree rather than run it. They type-check
// every package with go/types (the standard library from source, through
// the "source" importer) and hold four facts that no other test can:
//
//   - every function and method in non-test internal/ is reached from a
//     program (TestEveryFunctionHasACaller);
//   - what only benchmark/ calls is the pinned table benchmarkOnly
//     (TestBenchmarkOnlyCallers);
//   - every backticked identifier the design documents name exists
//     (TestDocIdentifiersResolve);
//   - the design rules of design_rules_test.go hold (TestDesignRules,
//     which reads files only and needs no type check).

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
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// modulePath is the root module's path; benchmark/ is its own module,
// mmconf/benchmark, and so its packages fall under the same prefix.
const modulePath = "mmconf"

// programRoots are the trees whose non-test code is a program: everything
// in them is reached, and what it reaches in internal/ is reached.
var programRoots = []string{"cmd", "examples", "benchmark"}

// srcPackage is one type-checked package of the tree, without its tests.
type srcPackage struct {
	path  string // import path
	dir   string // relative to the repo root
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// tree is the whole repository, type-checked once per test binary.
type tree struct {
	fset *token.FileSet
	pkgs map[string]*srcPackage // by import path
	std  types.Importer
}

var (
	loadOnce   sync.Once
	loadedTree *tree
	loadErr    error
)

// loadTree type-checks every package under internal/ and programRoots.
func loadTree(t *testing.T) *tree {
	t.Helper()
	loadOnce.Do(func() { loadedTree, loadErr = parseTree(".") })
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return loadedTree
}

func parseTree(root string) (*tree, error) {
	fset := token.NewFileSet()
	tr := &tree{fset: fset, pkgs: map[string]*srcPackage{}, std: importer.ForCompiler(fset, "source", nil)}
	ctx := build.Default
	for _, top := range append([]string{"internal"}, programRoots...) {
		err := filepath.WalkDir(filepath.Join(root, top), func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || name == "out" {
				return filepath.SkipDir
			}
			ents, err := os.ReadDir(p)
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(root, p)
			sp := &srcPackage{path: modulePath + "/" + filepath.ToSlash(rel), dir: filepath.ToSlash(rel)}
			for _, e := range ents {
				name := e.Name()
				if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
					continue
				}
				if ok, err := ctx.MatchFile(p, name); err != nil || !ok {
					continue
				}
				f, err := parser.ParseFile(fset, filepath.Join(p, name), nil, parser.ParseComments)
				if err != nil {
					return err
				}
				sp.files = append(sp.files, f)
			}
			if len(sp.files) > 0 {
				tr.pkgs[sp.path] = sp
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	for _, path := range tr.sortedPaths() {
		if _, err := tr.Import(path); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// Import type-checks a package of the tree on first use and hands the
// standard library to the source importer.
func (tr *tree) Import(path string) (*types.Package, error) {
	sp, ok := tr.pkgs[path]
	if !ok {
		if path == modulePath || strings.HasPrefix(path, modulePath+"/") {
			return nil, fmt.Errorf("package %s is not in the tree", path)
		}
		return tr.std.Import(path)
	}
	if sp.pkg != nil {
		return sp.pkg, nil
	}
	sp.info = &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: tr}
	pkg, err := conf.Check(path, tr.fset, sp.files, sp.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	sp.pkg = pkg
	return pkg, nil
}

func (tr *tree) sortedPaths() []string {
	paths := make([]string, 0, len(tr.pkgs))
	for p := range tr.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// funcName names a function or method as the allowlists do: the package's
// path under internal/ (or the repo root), the receiver's type name for a
// method, and the name: "wire.Server.Shutdown", "media/image.Zoom".
func funcName(fn *types.Func) string {
	path := strings.TrimPrefix(fn.Pkg().Path(), modulePath+"/")
	path = strings.TrimPrefix(path, "internal/")
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		rt := recv.Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if n, ok := rt.(*types.Named); ok {
			return path + "." + n.Obj().Name() + "." + fn.Name()
		}
		return path + ".?." + fn.Name()
	}
	return path + "." + fn.Name()
}

// reach is what a set of program roots reaches: functions and methods.
type reach struct {
	decls   map[*types.Func]*ast.FuncDecl
	owner   map[*types.Func]*srcPackage
	named   []*types.Named // every named type of the tree that has methods
	reached map[*types.Func]bool
	called  map[*types.Func]bool // interface methods called through an interface
	queue   []*types.Func
}

// reachFrom computes what the non-test code under the root directories
// reaches, together with the functions extra names. Every package's init
// functions and package-level variables are roots too. A method called
// through an interface reaches every implementation of it among the
// tree's named types.
func (tr *tree) reachFrom(roots []string, extra func(*types.Func) bool) *reach {
	r := &reach{decls: map[*types.Func]*ast.FuncDecl{}, owner: map[*types.Func]*srcPackage{},
		reached: map[*types.Func]bool{}, called: map[*types.Func]bool{}}
	for _, path := range tr.sortedPaths() {
		sp := tr.pkgs[path]
		root := underAny(sp.dir, roots)
		for _, name := range sp.pkg.Scope().Names() {
			if tn, ok := sp.pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); ok && n.NumMethods() > 0 {
					r.named = append(r.named, n)
				}
			}
		}
		for _, f := range sp.files {
			for _, decl := range f.Decls {
				if d, ok := decl.(*ast.FuncDecl); ok {
					fn := sp.info.Defs[d.Name].(*types.Func)
					r.decls[fn], r.owner[fn] = d, sp
					if root || (d.Recv == nil && d.Name.Name == "init") || (extra != nil && extra(fn)) {
						r.mark(fn)
					}
				}
			}
		}
	}
	for _, sp := range tr.pkgs {
		if !strings.HasPrefix(sp.dir, "internal/") && !underAny(sp.dir, roots) {
			continue
		}
		for _, f := range sp.files {
			for _, decl := range f.Decls {
				if d, ok := decl.(*ast.GenDecl); ok && d.Tok == token.VAR {
					r.refs(sp, d)
				}
			}
		}
	}
	for len(r.queue) > 0 {
		fn := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		r.refs(r.owner[fn], r.decls[fn])
	}
	return r
}

// underAny reports whether dir is one of roots or below one.
func underAny(dir string, roots []string) bool {
	for _, root := range roots {
		if dir == root || strings.HasPrefix(dir, root+"/") {
			return true
		}
	}
	return false
}

func (r *reach) mark(fn *types.Func) {
	fn = fn.Origin()
	if r.reached[fn] {
		return
	}
	r.reached[fn] = true
	if r.decls[fn] != nil {
		r.queue = append(r.queue, fn)
	}
}

// refs marks every function and method that node n names.
func (r *reach) refs(sp *srcPackage, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if fn, ok := sp.info.Uses[id].(*types.Func); ok {
			fn = fn.Origin()
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				r.callInterface(fn, recv.Type())
			} else {
				r.mark(fn)
			}
		}
		return true
	})
}

// callInterface marks the method m of every named type of the tree that
// implements the interface m is called through.
func (r *reach) callInterface(m *types.Func, iface types.Type) {
	if r.called[m] {
		return
	}
	r.called[m] = true
	it := iface.Underlying().(*types.Interface)
	for _, n := range r.named {
		var t types.Type = n
		if !types.Implements(t, it) {
			if t = types.NewPointer(n); !types.Implements(t, it) {
				continue
			}
		}
		if fn, ok := lookupMethod(t, m.Pkg(), m.Name()); ok {
			r.mark(fn)
		}
	}
}

func lookupMethod(t types.Type, pkg *types.Package, name string) (*types.Func, bool) {
	obj, _, _ := types.LookupFieldOrMethod(t, true, pkg, name)
	fn, ok := obj.(*types.Func)
	return fn, ok
}

// in reports whether fn is in the non-test code under dir.
func (r *reach) in(fn *types.Func, dir string) bool {
	sp := r.owner[fn]
	return sp != nil && underAny(sp.dir, []string{dir})
}

// Reasons a function no program reaches may stay. The set is closed.
const (
	// paperNamed: behaviour of the paper's system that no program here
	// drives yet. The entry's why opens with the phrase of PAPER.md that
	// names it, quoted.
	paperNamed = "paper-named behaviour"
	// fixture: test support that tests of other packages drive; a
	// function that only its own package's tests read lives in that
	// package's _test.go files instead.
	fixture = "test fixture driven from other packages"
	// satisfies: a method the standard library calls through an
	// interface it declares (fmt.Stringer, errors.Is, errors.Unwrap).
	satisfies = "interface satisfaction"
)

// allowEntry keeps functions that no program reaches. name is a
// function or method ("wire.WithTraceID", "room.Room.Members"), a type
// whose methods it covers ("cluster.Harness") or a package
// ("room/roomtest").
type allowEntry struct {
	name, reason, why string
}

var allowlist = []allowEntry{
	{"media/image.Zoom", paperNamed, `PAPER.md: "image processing (zoom" (paper §3.1); reaches Resize`},
	{"media/image.Segment", paperNamed, `PAPER.md: "segmentation grid with fills" (paper §3.1): threshold plus connected components`},
	{"media/image.FillSegment", paperNamed, `PAPER.md: "segmentation grid with fills" (paper §3.1): a pattern fill of one segment`},
	{"media/image.GridOverlay", paperNamed, `PAPER.md: "segmentation grid with fills" (paper §3.1): the grid drawn over the image`},
	{"media/image.Annotated.Render", paperNamed, `PAPER.md: "text/line elements" (paper §3.1): the text and line elements drawn on the image`},
	{"client.Session.ShareSearch", paperNamed, `PAPER.md: "word spotting" (paper §3.2): a voice search's hits shared with the room`},

	{"netsim.Faults", fixture, "fault injection under the server, client and cluster suites"},
	{"cluster.Harness", fixture, "an in-process cluster for the client's redirect and failover tests (benchmark/ runs cluster_choice on it too)"},
	{"cluster.NewHarness", fixture, "builds the cluster.Harness"},
	{"room/roomtest", fixture, "room-event followers and view checks for the room and server property tests"},
	{"workload.RandomRecord", fixture, "random documents for the core and prefetch reference tests"},
	{"client.Client.ReconnectStats", fixture, "the redial counters the server and cluster reconnect tests read"},
	{"bytecache.Cache.Contains", fixture, "what the client's media buffer holds, for the client push tests"},
	{"core.Engine.Choices", fixture, "the shared evidence, for the server join tests"},
	{"core.Engine.Viewers", fixture, "the engine's viewers, for the room property test"},
	{"cpnet.Network.Clone", fixture, "a copy of a network for the core and document reference models"},
	{"media/dsp.ZeroCrossingRate", fixture, "the audio synthesis tests' measure of noise"},
	{"netsim.Throttle", fixture, "a throttled link for the QoS meter tests"},
	{"obs.ContextWithID", fixture, "a pinned trace id, for the server's dispatch and trace tests"},
	{"proto.Methods", fixture, "proto's method table, for the cluster test that a node serves exactly its node rows"},
	{"room.Log.Trimmed", fixture, "the replay floor, for the proto and cluster replication tests"},
	{"room.Room.Members", fixture, "the member list, for the server join and reconnect tests"},
	{"server.Server.Methods", fixture, "the handlers a server registered, for the cluster test that a node serves exactly its node rows"},
	{"server.Server.ServeConn", fixture, "an in-process connection for the client and mmclient tests"},
	{"store.DB.DropTable", fixture, "a store failure under SaveMinutes, for the server tests"},
	{"wire.TokenBucket.Tokens", fixture, "the admission balance, for the server's shed-refund test"},

	{"author.Finding.String", satisfies, "fmt.Stringer"},
	{"author.Severity.String", satisfies, "fmt.Stringer"},
	{"blob.Digest.String", satisfies, "fmt.Stringer"},
	{"document.MediaKind.String", satisfies, "fmt.Stringer"},
	{"experiments.Table.String", satisfies, "fmt.Stringer: mmbench prints each table with fmt.Fprintln"},
	{"media/audio.SegmentType.String", satisfies, "fmt.Stringer"},
	{"media/voice.SpeechClass.String", satisfies, "fmt.Stringer"},
	{"obs.HistogramSnapshot.String", satisfies, "fmt.Stringer"},
	{"room.EventKind.String", satisfies, "fmt.Stringer"},
	{"store.ColumnType.String", satisfies, "fmt.Stringer"},
	{"wire.Priority.String", satisfies, "fmt.Stringer"},
	{"wire.OverloadError.Is", satisfies, "errors.Is"},
	{"wire.RedirectError.Is", satisfies, "errors.Is"},
	{"wire.UnavailableError.Is", satisfies, "errors.Is"},
	{"wire.RemoteError.Unwrap", satisfies, "errors.Unwrap"},
}

// covers reports whether the entry names fn, its type or its package.
func (e allowEntry) covers(fn *types.Func) bool {
	name := funcName(fn)
	return name == e.name || strings.HasPrefix(name, e.name+".")
}

// kept returns the allowlist as the roots reachFrom adds: an entry keeps
// what it covers, but a fixture entry, a type's or a package's too, keeps
// only the functions a test of another package names. A fixture function
// that nothing drives, not even a test, is then reported like any other,
// unless a kept one reaches it.
func kept(tr *tree, tests testFiles) func(*types.Func) bool {
	return func(fn *types.Func) bool {
		for _, e := range allowlist {
			if e.covers(fn) && (e.reason != fixture || tests.drives(tr, fn)) {
				return true
			}
		}
		return false
	}
}

// stdInterfaces are the standard library's interfaces that the
// satisfies reason may name, by method.
var stdInterfaces = map[string]string{
	"String": "func() string",
	"Is":     "func(error) bool",
	"Unwrap": "func() error",
}

// signature spells fn's type without its receiver and parameter names.
func signature(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	var params, results []string
	for i := 0; i < sig.Params().Len(); i++ {
		params = append(params, sig.Params().At(i).Type().String())
	}
	for i := 0; i < sig.Results().Len(); i++ {
		results = append(results, sig.Results().At(i).Type().String())
	}
	return "func(" + strings.Join(params, ", ") + ") " + strings.Join(results, ", ")
}

func TestEveryFunctionHasACaller(t *testing.T) {
	tr := loadTree(t)
	tests := loadTestFiles(t)
	live := tr.reachFrom(programRoots, kept(tr, tests))
	var dead []string
	for fn, d := range live.decls {
		if !live.reached[fn] && live.in(fn, "internal") {
			dead = append(dead, fmt.Sprintf("%s (%s)", funcName(fn), tr.fset.Position(d.Pos())))
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("no program or test of another package reaches %s: delete it, or move it into its package's _test.go files if only those tests read it", d)
	}

	// An entry names something cmd/ and examples/ do not reach: benchmark/
	// keeps the cluster harness alive, and the harness is a fixture too.
	programs := tr.reachFrom([]string{"cmd", "examples"}, nil)

	paper, err := os.ReadFile("PAPER.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range allowlist {
		var matched []*types.Func
		for fn := range programs.decls {
			if !programs.reached[fn] && programs.in(fn, "internal") && e.covers(fn) {
				matched = append(matched, fn)
			}
		}
		if len(matched) == 0 {
			t.Errorf("allowlist entry %s: names nothing that cmd/ and examples/ leave unreached; delete the entry", e.name)
			continue
		}
		switch e.reason {
		case paperNamed:
			quote, _, _ := strings.Cut(strings.TrimPrefix(e.why, `PAPER.md: "`), `"`)
			if !strings.HasPrefix(e.why, `PAPER.md: "`) || !strings.Contains(string(paper), quote) {
				t.Errorf("allowlist entry %s: a paper-named entry opens with a phrase quoted from PAPER.md", e.name)
			}
		case fixture:
			if !slices.ContainsFunc(matched, func(fn *types.Func) bool { return tests.drives(tr, fn) }) {
				t.Errorf("allowlist entry %s: no test of another package uses it; move it into its own package's _test.go files", e.name)
			}
		case satisfies:
			for _, fn := range matched {
				if sig, ok := stdInterfaces[fn.Name()]; !ok || signature(fn) != sig {
					t.Errorf("allowlist entry %s: %s is not a method of %s", e.name, fn.Type(), e.why)
				}
			}
		default:
			t.Errorf("allowlist entry %s: reason %q is not one of the three", e.name, e.reason)
		}
	}
}

// testFile is what the fixture check needs of one _test.go file.
type testFile struct {
	dir       string
	imports   map[string]string // import path to local name
	selectors map[string]bool   // every x.Name selector's Name, x not an import
	qualified map[string]bool   // "name.Name" for every import-qualified use
}

type testFiles []testFile

// loadTestFiles parses the tree's _test.go files, the repo root's too.
func loadTestFiles(t *testing.T) testFiles {
	t.Helper()
	var out testFiles
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		tf := testFile{dir: filepath.ToSlash(filepath.Dir(p)), imports: map[string]string{},
			selectors: map[string]bool{}, qualified: map[string]bool{}}
		names := map[string]bool{}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			name := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			tf.imports[path], names[name] = name, true
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				// strings.Contains names a function of strings, not a
				// method called Contains.
				if x, ok := sel.X.(*ast.Ident); ok && names[x.Name] {
					tf.qualified[x.Name+"."+sel.Sel.Name] = true
				} else {
					tf.selectors[sel.Sel.Name] = true
				}
			}
			return true
		})
		out = append(out, tf)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// drives reports whether the tests of another package name fn: a
// function by its import-qualified name, a method by a selector in a
// directory whose tests or code import the method's package.
func (tfs testFiles) drives(tr *tree, fn *types.Func) bool {
	path := fn.Pkg().Path()
	dir := strings.TrimPrefix(path, modulePath+"/")
	imported := map[string]bool{}
	for _, tf := range tfs {
		if _, ok := tf.imports[path]; ok {
			imported[tf.dir] = true
		}
	}
	for _, sp := range tr.pkgs {
		for _, imp := range sp.pkg.Imports() {
			if imp.Path() == path {
				imported[sp.dir] = true
			}
		}
	}
	for _, tf := range tfs {
		if tf.dir == dir || !imported[tf.dir] {
			continue
		}
		if fn.Type().(*types.Signature).Recv() != nil && tf.selectors[fn.Name()] || tf.qualified[tf.imports[path]+"."+fn.Name()] {
			return true
		}
	}
	return false
}

// benchmarkOnly lists the functions of internal/ that benchmark/ calls and
// no program reaches without it, each with the ROADMAP item 1 line that
// frees it. The table is exact: a function leaves it when the benchmark
// stops calling it (and it goes) or when a program starts to, and a new
// one may not join it.
var benchmarkOnly = map[string]string{
	"store.Table.UpdateReturningOld": "fetch_layers.go:123,215 time Table.UpdateReturningOld: time Table.Update",
	"room.MarshalEventBinary":        "choice_layers.go:157-158 check the always-nil error of room.MarshalEventBinary: drop it",
	"core.Engine.Views":              "choice_layers.go:128,350 time Engine.Views: check and time through Engine.Solved",
	"cluster.Node.Metrics":           "sut.go:201 sums cluster values out of Node.Metrics(): read them from sys.stats by name",
	"wire.Stats.Counter":             "fetch_layers.go:228,235 read a counter through wire.Stats.Counter: read it from sys.stats by name",
	"wire.Stats.Method":              "sut.go:217 and choice_layers.go:240 read wire.Stats.Method: read the method rows from sys.stats",
	"client.NewOverDialer":           "sut.go:149 dials through client.NewOverDialer to count wire bytes: count them from the wire counters",
	"client.Session.NeedsResync":     "choice.go:234 reads Session.NeedsResync: check the event stream for a gap",
	"mediadb.MediaDB.GetAudio":       "fetch.go:306,310 and fetch_layers.go time the whole-object getters: use the rows and blobs the server reads",
	"mediadb.MediaDB.GetCmp":         "fetch.go:306,310 and fetch_layers.go time the whole-object getters: use the rows and blobs the server reads",
}

func TestBenchmarkOnlyCallers(t *testing.T) {
	tr := loadTree(t)
	programs := tr.reachFrom([]string{"cmd", "examples"}, kept(tr, loadTestFiles(t)))
	got := map[string]bool{}
	for _, sp := range tr.pkgs {
		if !underAny(sp.dir, []string{"benchmark"}) {
			continue
		}
		for _, obj := range sp.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || !programs.in(fn.Origin(), "internal") {
				continue
			}
			if !programs.reached[fn.Origin()] {
				got[funcName(fn.Origin())] = true
			}
		}
	}
	for name := range got {
		if _, ok := benchmarkOnly[name]; !ok {
			t.Errorf("%s: benchmark/ is its only program caller, and it is not in the pinned table", name)
		}
	}
	for name := range benchmarkOnly {
		if !got[name] {
			t.Errorf("%s: pinned as benchmark-only, but benchmark/ no longer calls it or a program reaches it; take it out of the table", name)
		}
	}
}

// docFiles are the documents whose identifiers must resolve.
var docFiles = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

// historical marks a document line that names code as it was; its
// identifiers need not resolve.
const historical = "<!-- historical -->"

// TestDocIdentifiersResolve: every backticked pkg.Name or pkg.Name.Member
// in the documents names a package of internal/ and something in it: a
// package-level name, a method or field of one of its types, or a test.
func TestDocIdentifiersResolve(t *testing.T) {
	tr := loadTree(t)
	byName := map[string][]*srcPackage{}
	for _, sp := range tr.pkgs {
		if strings.HasPrefix(sp.dir, "internal/") {
			byName[sp.pkg.Name()] = append(byName[sp.pkg.Name()], sp)
		}
	}
	tests := testFuncs(t)
	ident := regexp.MustCompile("`\\(?\\*?([a-z][a-z0-9]*)\\.([A-Z][A-Za-z0-9_]*)(?:\\.([A-Za-z_][A-Za-z0-9_]*))?(?:\\([^)`]*\\))?\\)?`")
	seen := map[string]bool{}
	for _, doc := range docFiles {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if strings.Contains(line, historical) {
				continue
			}
			for _, m := range ident.FindAllStringSubmatch(line, -1) {
				pkgs, ok := byName[m[1]]
				if !ok {
					continue // not a package of the tree: the standard library, a file, a method string
				}
				name := m[1] + "." + m[2]
				if m[3] != "" {
					name += "." + m[3]
				}
				seen[name] = true
				if !resolves(pkgs, tests, m[2], m[3]) {
					t.Errorf("%s:%d: `%s` names nothing in the tree; fix the line, or end it with %s if it describes code as it was", doc, i+1, name, historical)
				}
			}
		}
	}
	if len(seen) < 100 {
		t.Errorf("only %d identifiers found in the documents: the pattern no longer matches how they are written", len(seen))
	}
}

// resolves reports whether name (and member, when set) is in one of pkgs.
func resolves(pkgs []*srcPackage, tests map[string]bool, name, member string) bool {
	for _, sp := range pkgs {
		obj := sp.pkg.Scope().Lookup(name)
		if obj == nil {
			if member == "" && (tests[sp.path+"."+name] || isMember(sp.pkg, name)) {
				return true
			}
			continue
		}
		if member == "" {
			return true
		}
		t := obj.Type()
		if _, ok := obj.(*types.TypeName); ok {
			t = types.NewPointer(t)
		}
		if obj, _, _ := types.LookupFieldOrMethod(t, true, sp.pkg, member); obj != nil {
			return true
		}
	}
	return false
}

// isMember reports whether name is a method or field of one of pkg's
// named types: documents write `server.Shutdown(ctx)` for the method.
func isMember(pkg *types.Package, name string) bool {
	for _, n := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(n).(*types.TypeName); ok {
			if obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), true, pkg, name); obj != nil {
				return true
			}
		}
	}
	return false
}

var testName = regexp.MustCompile(`^(Test|Benchmark|Fuzz|Example)`)

// testFuncs lists the tests and benchmarks of internal/ by import path
// and name: "mmconf/internal/obs.TestSpanAllocatesNothing".
func testFuncs(t *testing.T) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && testName.MatchString(fd.Name.Name) {
				out[modulePath+"/"+filepath.ToSlash(filepath.Dir(p))+"."+fd.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
