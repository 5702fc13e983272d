package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"zac/internal/circuit"
	"zac/internal/compiler"
	"zac/internal/workload"
)

// TestCompileWorkloadSpec exercises the "workload" request field: the spec
// is generated and compiled, the response carries the canonical spec as the
// program name, and an identically-specified (but differently spelled)
// request hits the cache.
func TestCompileWorkloadSpec(t *testing.T) {
	s, ts := newTestServer(t, Options{Parallel: 2})
	code, body := do(t, "POST", ts.URL+"/v1/compile?zair=0",
		`{"workload": "rb:n=6,depth=3,seed=7"}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var res CompileResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Name != "rb:n=6,depth=3,seed=7" {
		t.Fatalf("name = %q, want the canonical spec", res.Name)
	}
	if res.NumQubits != 6 || res.Cached {
		t.Fatalf("resp = %+v", res)
	}

	// Same workload, different spelling (reordered params, spec: prefix) —
	// canonicalization makes it the same cache key.
	code, body = do(t, "POST", ts.URL+"/v1/compile?zair=0",
		`{"workload": "spec:rb:depth=3,seed=7,n=6"}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Fatalf("identical spec missed the cache: %+v", res)
	}
	if st := s.CacheStats(); st.MemHits == 0 {
		t.Fatalf("cache stats report no memory hit: %+v", st)
	}
}

// TestCompileWorkloadErrors pins the validation paths: bad specs are 400s,
// and workload is mutually exclusive with circuit/qasm.
func TestCompileWorkloadErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{Parallel: 1})
	cases := map[string]string{
		"unknown family": `{"workload": "frobnicate:n=4"}`,
		"bad param":      `{"workload": "rb:n=0"}`,
		"with circuit":   `{"workload": "rb", "circuit": "ghz_n23"}`,
		"with qasm":      `{"workload": "rb", "qasm": "qreg q[1];"}`,
		// A ~50-byte body must not be able to request an effectively
		// unbounded circuit: size-like params carry finite Max bounds, and
		// in-range products are stopped by the per-family gate budget
		// (inside the compile semaphore, before any allocation).
		"oversized":         `{"workload": "shuffle:n=2000000000,depth=1000000"}`,
		"oversized product": `{"workload": "rb:n=2048,depth=2048"}`,
	}
	for name, body := range cases {
		code, resp := do(t, "POST", ts.URL+"/v1/compile", body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, code, resp)
		}
	}
}

// TestCompileWorkloadZAIRMatchesCLI checks the emitted ZAIR for a workload
// spec is byte-identical to the zac CLI path (same compiler, same
// compiler.Request preparation).
func TestCompileWorkloadZAIRMatchesCLI(t *testing.T) {
	_, ts := newTestServer(t, Options{Parallel: 1})
	code, body := do(t, "POST", ts.URL+"/v1/compile?format=zair",
		`{"workload": "shuffle:n=6,depth=2,seed=3"}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	cli, err := cliZAIR("shuffle:n=6,depth=2,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != string(cli) {
		t.Fatal("service ZAIR differs from the CLI encoding for the same spec")
	}
}

// cliZAIR reproduces the `zac -circuit spec:… -out` path in-process: a
// compiler.Request through the registry's zac compiler, MarshalIndent
// encoding.
func cliZAIR(spec string) ([]byte, error) {
	comp, err := compiler.Get("zac")
	if err != nil {
		return nil, err
	}
	res, err := compiler.Request{
		Compiler: comp,
		Build:    func() (*circuit.Circuit, error) { return workload.Build(spec) },
	}.Compile(context.Background())
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(res.Program, "", " ")
}
