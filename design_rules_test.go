package mmconf_bench

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// designRule is one design rule of the tree, checked over its files. A
// rule is one of four kinds:
//
//   - a line rule: at most max lines of the files in scope match re
//     (exactly max when exact is set);
//   - a body rule: the same, over the lines of the functions named in
//     funcs, each of which the files in scope must declare;
//   - a field rule: no field of the struct type fieldsOf, declared in the
//     files in scope, has a name that re matches;
//   - a size rule: no file in scope is over lines lines long.
//
// Scope entries are files, directories ("internal/server", its own files
// only; "." the repo root's) and trees ("internal/...", with every
// directory below). Test files are out of scope unless tests is set; a
// rule that reads the repo root takes out the design tests, which spell
// every pattern.
type designRule struct {
	name   string // the rule
	commit string // the change that set it down
	why    string

	re       string
	in       []string
	except   []string // path prefixes, or file names, taken out of scope
	tests    bool
	max      int
	exact    bool
	funcs    []string // "name", "Recv.name", or "return:name" for the function literal name returns
	fieldsOf string
	lines    int
}

// designRules is every rule the tree keeps, one row per check. Each
// names what coming back would mean.
var designRules = []designRule{
	{name: "One LRU implementation", commit: "0734a48",
		why: "internal/bytecache is the only list-and-evict code; a second container/list or hand-linked prev/next pair is a second cache",
		re:  `"container/list"|prev, next \*`, in: []string{"internal/...", "cmd/..."}, except: []string{"internal/bytecache/"}},
	{name: "One connection path", commit: "e443cca",
		why: "the client moves its connection in one routine, connect; a second wire.NewClient is a second dial, resume and install",
		re:  `wire\.NewClient\(`, in: []string{"internal/client/..."}, max: 1},
	{name: "The media schema is spelled in internal/mediadb", commit: "72d2493",
		why: "replication carries rows as the store keeps them; a media column named in the cluster tier or the sync frame is the per-table mirror coming back",
		re:  `\b(Quality|Texts|Sectors|FileSize)\b`, in: []string{"internal/cluster", "internal/proto/sync.go"}},
	{name: "Blob references are counted in internal/store", commit: "dc9f678",
		why: "the store counts a row's blob references on its one write path; releasing a displaced row's handles outside it is a second owner of the count",
		re:  `\b(DeleteReturningOld|UpdateReturningOld|ResetRefs|releaseRowBlobs)\b`, in: []string{"internal/...", "cmd/..."},
		except: []string{"internal/store/", "internal/blob/"}},
	{name: "One room log", commit: "08ba3f2",
		why: "the owner's room, its standby's replica and a takeover hold one room.Log; a second ring, buffer type or the room's decoded rasters is a second copy",
		re:  `\b(eventRing|replicaBuffer|RegisterRaster)\b|type changeBuffer`, in: []string{"internal/...", "cmd/...", "examples/..."}},
	{name: "One replication loop: one sender", commit: "9526de2",
		why: "every replication frame leaves from replLoop; a reconciler goroutine or a send of its own is a second stream",
		re:  `\b(reconciler|kickReconcile|recNotify)\b|handOff\(`, in: []string{"internal/cluster/..."}},
	{name: "One replication loop: two tickers", commit: "9526de2",
		why: "the pinger's ticker and the replication loop's are the cluster's only two",
		re:  `time\.NewTicker`, in: []string{"internal/cluster/..."}, max: 2, exact: true},
	{name: "One replication loop: one cluster seam", commit: "9526de2",
		why: "Options.Cluster is the server's one cluster seam; a hook field beside it is a second",
		re:  `^(RoomTap|RoomSeed|OnPeerClose)$`, in: []string{"internal/server/server.go"}, fieldsOf: "Options"},
	{name: "Every setting has a caller: server constants", commit: "67df212",
		why: "the request deadline, the slow bar, the QoS bands and the member queue budget are constants no program sets",
		re:  `^(RequestTimeout|SlowThreshold|QoSBands|MemberPushBudget)$`, in: []string{"internal/server/server.go"}, fieldsOf: "Options"},
	{name: "Every setting has a caller: the WAL group size", commit: "67df212",
		why: "the WAL group size is a constant no program sets",
		re:  `^GroupSize$`, in: []string{"internal/store/db.go"}, fieldsOf: "Options"},
	{name: "Every setting has a caller: no push-budget flag", commit: "67df212",
		why: "the member queue budget is a constant, not a flag",
		re:  `"push-budget"`, in: []string{"cmd/...", "internal/..."}},
	{name: "Every setting has a caller: the QoS loop always runs", commit: "67df212",
		why: "a QoS loop that may be off is a mode no program turns on",
		re:  `qos != nil`, in: []string{"internal/server/..."}},
	{name: "One method table: one place per method fact", commit: "6c0b758",
		why: "proto's method table declares each method's code, class and scope; a second code map, scope set or class map is a table only tests keep in step",
		re:  `map\[uint16\]string\{|roomScoped|RoomScoped|methodClasses|NodeMethods`, in: []string{"cmd/...", "internal/..."}},
	{name: "One method table: no overload-retry option", commit: "6c0b758",
		why: "no program took a client overload-retry option",
		re:  `RetryOverloaded`, in: []string{".", "internal/...", "cmd/...", "examples/...", "benchmark/..."}, tests: true,
		except: []string{"design_"}},
	{name: "One method table: two calls on wire.Client", commit: "6c0b758",
		why: "CallCtx and CallRaw are wire.Client's calls; a context-free or timeout call is a second way no program took",
		re:  `func \(c \*Client\) Call\(|\bCallTimeout\(`, in: []string{"internal/wire/..."}, tests: true},
	{name: "One method table: a default built once", commit: "6c0b758",
		why: "a MetaSetDefault building its default on every call makes a table per room request",
		re:  `MetaSetDefault\([^,]+, *&?[][A-Za-z0-9_.*]+\{`, in: []string{"cmd/...", "internal/..."}, tests: true},
	{name: "One error form", commit: "89b61b2",
		why: "a failed response names its error in a status byte and carries its fields in the body codec; an error parsed back from its text is a second form",
		re:  `Parse(Overload|Redirect|Unavailable)|retypeError|(overload|redirect|unavailable)(Prefix|Sep)|ErrDraining`,
		in:  []string{"cmd/...", "internal/...", "examples/..."}, tests: true},
	{name: "A counter is resolved once", commit: "5efed8d",
		why: "a counter is a handle resolved from wire.Stats once; an add by name looks the name up on every count",
		re:  `func \(st \*Stats\) Add\(|\.Add\((wire\.)?Counter|\.Add\(oe\.Counter\(\)`, in: []string{"internal/...", "cmd/..."}},
	{name: "One membership record: one room table", commit: "b470e79",
		why: "a connection's memberships are the one record of who is in a room; a sharded room table is a second",
		re:  `(?i)shard|fnv`, in: []string{"internal/server/..."}},
	{name: "One membership record: no cluster-side member set", commit: "b470e79",
		why: "a cluster-side set of the connections that joined a room is a second record of membership",
		re:  `roomPeers|trackRoomPeer`, in: []string{"internal/cluster/..."}, tests: true},
	{name: "One member record", commit: "c576bed",
		why: "a membership is the connection's slot, its writer's source and the QoS loop's unit; a QoS client, member source, controller, level parser or band validator beside it has no program caller",
		re:  `qosClient|memberSource|func NewController|ParseLevel|\) Valid\(\)`, in: []string{"internal/server", "internal/qos"}},
	{name: "One recovery path", commit: "e874d12",
		why: "every Open rebuilds the CAS index by the one segment scan; an index snapshot on disk is a second recovery path",
		re:  `cas\.index|saveIndex|loadIndex`, in: []string{"internal/blob/..."}},
	{name: "One solve path", commit: "a6eb574",
		why: "every viewer is served from a compiled view re-solved by propagation; a map-based completion is a second solve path",
		re:  `\b(OptimalCompletion|SolveOverlay|ReconfigPresentationFor)\b`, in: []string{"internal/core/...", "internal/document/...", "internal/room/..."}},
	{name: "One pre-fetch path", commit: "c78cc2c",
		why: "the server's QoS loop ranks and pushes into the client's one media buffer; a simulation or a client-pull warm loop is a second path",
		re:  `Simulate\(|WarmBuffer|prefetch\.Warm`, in: []string{"internal/...", "cmd/...", "examples/..."}},
	{name: "No encoding/gob outside tests", commit: "9d248e8",
		why: "every byte on disk and wire goes through the wire.BodyEnc/wire.Dec primitives; a gob import is a second encoding",
		re:  `"encoding/gob"`, in: []string{"internal/...", "cmd/...", "examples/..."}},
	{name: "A request is one allocation: no context or trace of its own", commit: "b387be9",
		why: "a request runs under one wire.Request, which holds the handler's context, the trace and the deadline; a value or deadline context or a trace made in the request path is a second per-request object",
		re:  `context\.With(Timeout|Deadline|Value)|obs\.NewTrace`, in: []string{"internal/server/dispatch.go", "internal/wire/server.go"}},
	{name: "A request is one allocation: one Request site", commit: "7ec7447",
		why: "the request worker keeps its wire.Request and resets it for the next request; wire.Server.run is the one place internal/wire makes one",
		re:  `&Request\{`, in: []string{"internal/wire"}, max: 1, exact: true},
	{name: "A request is one allocation: no relayed-push copy", commit: "7ec7447",
		why: "PushRaw copies the payload into its pooled encoder; a copy of each relayed push in dialIngress is a second one",
		re:  `append\(\[\]byte\(nil\)`, in: []string{"internal/cluster/links.go"}, funcs: []string{"Node.dialIngress"}},
	{name: "A request is one allocation: the body in a pooled frame", commit: "78c2819",
		why: "ServeConn reads each request with readRequest into a pooled frame; a readFrame or a buffer made in ServeConn is a buffer per request",
		re:  `readFrame\(|make\(\[\]byte`, in: []string{"internal/wire/server.go"}, funcs: []string{"Server.ServeConn"}},
	{name: "A request is one allocation: readRequest makes no buffer", commit: "78c2819",
		why: "a frame that fits the pool's size class is a pooled frame; a larger one is readFrame's",
		re:  `make\(\[\]byte`, in: []string{"internal/wire/framepool.go"}, funcs: []string{"readRequest"}},
	{name: "A request is one allocation: the request value from a pool", commit: "78c2819",
		why: "the handler Typed returns takes its request value from its pool; a new(Req) or &Req{} in it is a value per request",
		re:  `new\(Req\)|&Req\{`, in: []string{"internal/wire/typed.go"}, funcs: []string{"return:Typed"}},
	{name: "A request is one allocation: poison only in TestMain", commit: "78c2819",
		why: "the poison that overwrites each recycled frame is set by the TestMain of wire, server, client and cluster, and by nothing else",
		re:  `\bpoisonFrames = `, in: []string{"internal/...", "cmd/..."}, tests: true, except: []string{"main_test.go"}},
	{name: "A bounded call makes no context", commit: "e65cb01",
		why: "roundTrip waits on a pooled timer beside the reply, and callPeer leaves the bound to the peer link's call timeout; a context made in either is a context and a timer per call",
		re:  `context\.With(Timeout|Deadline|Cancel)`, in: []string{"internal/wire/client.go", "internal/cluster/links.go"},
		funcs: []string{"Client.roundTrip", "Node.callPeer"}},
	{name: "No source file over 900 lines", commit: "06f9474",
		why: "a file a newcomer cannot hold in their head is split along its seams",
		in:  []string{"internal/...", "cmd/..."}, lines: 900},
}

// rulesRoot is the directory the rules read.
const rulesRoot = "."

func TestDesignRules(t *testing.T) {
	for _, r := range designRules {
		t.Run(r.name, func(t *testing.T) {
			files, err := r.files(rulesRoot)
			if err != nil {
				t.Fatal(err)
			}
			if len(files) == 0 {
				t.Fatalf("no file in scope %v: the rule checks nothing", r.in)
			}
			var breaks []string
			switch {
			case r.lines > 0:
				breaks, err = r.longFiles(rulesRoot, files)
			case len(r.funcs) > 0:
				breaks, err = r.bodyMatches(rulesRoot, files)
			case r.fieldsOf != "":
				breaks, err = r.forbiddenFields(rulesRoot, files)
			default:
				breaks, err = r.matches(rulesRoot, files)
			}
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case r.exact && len(breaks) != r.max:
				t.Errorf("%d lines match where %s wants exactly %d: %s\n\t%s",
					len(breaks), r.commit, r.max, r.why, strings.Join(breaks, "\n\t"))
			case len(breaks) > r.max:
				t.Errorf("%d lines break the rule (%s allows %d): %s\n\t%s",
					len(breaks), r.commit, r.max, r.why, strings.Join(breaks, "\n\t"))
			}
		})
	}
}

// files lists the .go files in the rule's scope, relative to root.
func (r designRule) files(root string) ([]string, error) {
	var out []string
	add := func(rel string) {
		if !strings.HasSuffix(rel, ".go") || !r.tests && strings.HasSuffix(rel, "_test.go") {
			return
		}
		for _, x := range r.except {
			if strings.HasPrefix(rel, x) || filepath.Base(rel) == x {
				return
			}
		}
		out = append(out, rel)
	}
	for _, scope := range r.in {
		dir, tree := strings.CutSuffix(scope, "/...")
		info, err := os.Stat(filepath.Join(root, dir))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			add(dir)
			continue
		}
		err = filepath.WalkDir(filepath.Join(root, dir), func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(root, p)
			rel = filepath.ToSlash(rel)
			if d.IsDir() {
				if rel != dir && !tree {
					return filepath.SkipDir
				}
				return nil
			}
			add(rel)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}

// matches lists the lines of files that match the rule's pattern.
func (r designRule) matches(root string, files []string) ([]string, error) {
	re := regexp.MustCompile(r.re)
	var out []string
	for _, rel := range files {
		f, err := os.Open(filepath.Join(root, rel))
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for n := 1; sc.Scan(); n++ {
			if re.MatchString(sc.Text()) {
				out = append(out, fmt.Sprintf("%s:%d: %s", rel, n, strings.TrimSpace(sc.Text())))
			}
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// bodyMatches lists the lines of the rule's functions that match its
// pattern.
func (r designRule) bodyMatches(root string, files []string) ([]string, error) {
	re := regexp.MustCompile(r.re)
	fset := token.NewFileSet()
	found := map[string]bool{}
	var out []string
	for _, rel := range files {
		src, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(fset, rel, src, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil {
				name = recvName(fd.Recv.List[0].Type) + "." + name
			}
			for _, want := range r.funcs {
				var body ast.Node
				switch want {
				case name:
					body = fd
				case "return:" + name:
					body = returnedFunc(fd)
				}
				if body == nil {
					continue
				}
				found[want] = true
				start, end := fset.Position(body.Pos()), fset.Position(body.End())
				lines := strings.Split(string(src[start.Offset:end.Offset]), "\n")
				for i, line := range lines {
					if re.MatchString(line) {
						out = append(out, fmt.Sprintf("%s:%d: %s", rel, start.Line+i, strings.TrimSpace(line)))
					}
				}
			}
		}
	}
	for _, want := range r.funcs {
		if !found[want] {
			return nil, fmt.Errorf("no function %s in %v: the rule checks nothing", want, files)
		}
	}
	return out, nil
}

// recvName is a receiver's type name without its pointer or type
// parameters.
func recvName(x ast.Expr) string {
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// returnedFunc is the function literal fd's body returns.
func returnedFunc(fd *ast.FuncDecl) ast.Node {
	for _, stmt := range fd.Body.List {
		if ret, ok := stmt.(*ast.ReturnStmt); ok && len(ret.Results) == 1 {
			if lit, ok := ret.Results[0].(*ast.FuncLit); ok {
				return lit
			}
		}
	}
	return nil
}

// forbiddenFields lists the fields of the rule's struct type whose names
// the rule's pattern matches.
func (r designRule) forbiddenFields(root string, files []string) ([]string, error) {
	re := regexp.MustCompile(r.re)
	fset := token.NewFileSet()
	var out []string
	found := false
	for _, rel := range files {
		f, err := parser.ParseFile(fset, filepath.Join(root, rel), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != r.fieldsOf {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return false
			}
			found = true
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					if re.MatchString(name.Name) {
						out = append(out, fmt.Sprintf("%s:%d: %s.%s", rel, fset.Position(name.Pos()).Line, r.fieldsOf, name.Name))
					}
				}
			}
			return false
		})
	}
	if !found {
		return nil, fmt.Errorf("no struct type %s in %v: the rule checks nothing", r.fieldsOf, files)
	}
	return out, nil
}

// longFiles lists the files over the rule's line bound.
func (r designRule) longFiles(root string, files []string) ([]string, error) {
	var out []string
	for _, rel := range files {
		data, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			return nil, err
		}
		if n := strings.Count(string(data), "\n"); n > r.lines {
			out = append(out, fmt.Sprintf("%s: %d lines", rel, n))
		}
	}
	return out, nil
}
