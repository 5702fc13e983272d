package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"zac/internal/circuit"
	"zac/internal/compiler"
	"zac/internal/core"
	"zac/internal/serve"
	"zac/internal/telemetry"
	forge "zac/internal/workload"
	"zac/internal/zair"
)

// goldenPath pins the ZAIR of five Fig. 8 circuits under full ZAC; the
// benchmark runs from the repository root.
const goldenPath = "internal/core/testdata/determinism.golden"

// goldenSetting is the golden file's key component for the preset the
// registry's "zac" compiler runs.
const goldenSetting = "SA+dynPlace+reuse"

// readGolden returns the golden file's ZAIR hashes by circuit name.
func readGolden() (map[string]string, error) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, fmt.Errorf("reading the determinism golden: %w", err)
	}
	all := map[string]string{}
	if err := json.Unmarshal(data, &all); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", goldenPath, err)
	}
	out := map[string]string{}
	for k, v := range all {
		rest, ok := strings.CutPrefix(k, "zair/")
		if name, pinned := strings.CutSuffix(rest, "/"+goldenSetting); ok && pinned {
			out[name] = v
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s pins no ZAIR under %s", goldenPath, goldenSetting)
	}
	return out, nil
}

// programHash is the golden file's digest of a program: sha256 of its
// compact JSON.
func programHash(p *zair.Program) (string, error) {
	data, err := json.Marshal(p)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// checkProgramHash checks a compile-paper output: the run's first compile
// of a circuit must equal a fresh library compile, and the golden hash when
// the circuit has one.
func checkProgramHash(name string, first, lib *core.Result, golden map[string]string) error {
	got, err := programHash(first.Program)
	if err != nil {
		return fmt.Errorf("%s: encoding ZAIR: %w", name, err)
	}
	want, err := programHash(lib.Program)
	if err != nil {
		return fmt.Errorf("%s: encoding ZAIR: %w", name, err)
	}
	if got != want {
		return fmt.Errorf("%s: compiled ZAIR differs from a fresh library compile", name)
	}
	if g, ok := golden[name]; ok && got != g {
		return fmt.Errorf("%s: ZAIR sha256 %s, determinism golden pins %s", name, got, g)
	}
	return nil
}

// generatorOf builds a workload spec's circuit.
func generatorOf(spec string) func() (*circuit.Circuit, error) {
	return func() (*circuit.Circuit, error) {
		s, err := forge.Parse(spec)
		if err != nil {
			return nil, err
		}
		return s.Generate()
	}
}

// judgeLibrary replays a library compile through the ZAIR verifier, records
// its figures on the output, and returns its `zac -out` encoding. Encoding
// and snapshot decoding are spans for the per-layer metrics.
func judgeLibrary(ctx context.Context, comp compiler.Compiler, res *core.Result, o *output) ([]byte, error) {
	v := &zair.Verifier{Resolve: compiler.TargetArch(comp).ResolveTrap}
	if err := v.Verify(res.Program); err != nil {
		return nil, fmt.Errorf("%s: ZAIR replay: %w", o.key, err)
	}
	_, sp := telemetry.Start(ctx, "bench.encode")
	raw, err := json.MarshalIndent(res.Program, "", " ")
	sp.SetInt("bytes", len(raw))
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("%s: encoding ZAIR: %w", o.key, err)
	}
	codec := core.ResultCodec()
	snap, err := codec.Encode(res)
	if err != nil {
		return nil, fmt.Errorf("%s: encoding snapshot: %w", o.key, err)
	}
	_, sp = telemetry.Start(ctx, "bench.snapshot_decode")
	_, err = codec.Decode(snap)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("%s: decoding snapshot: %w", o.key, err)
	}
	o.fid, o.dur = res.Breakdown.Total, res.Duration
	o.moves, o.reused, o.jobs = res.TotalMoves, res.ReusedGates, res.NumJobs
	if !(o.fid > 0) || !(o.dur > 0) {
		return nil, fmt.Errorf("%s: fidelity %g and duration %g must be positive", o.key, o.fid, o.dur)
	}
	return raw, nil
}

// checkResponse checks a compile response the ops received against the
// library compile of the same input: same summary figures, and ZAIR equal
// to the library's encoding up to the response's indentation.
func checkResponse(key string, body []byte, lib *core.Result, zairBytes []byte) error {
	var resp serve.CompileResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("%s: decoding response: %w", key, err)
	}
	if resp.Fidelity.Total != lib.Breakdown.Total || resp.DurationUS != lib.Duration ||
		resp.Moves != lib.TotalMoves || resp.RearrangeJobs != lib.NumJobs || resp.ReusedGates != lib.ReusedGates {
		return fmt.Errorf("%s: response summary differs from the library compile", key)
	}
	var got, want bytes.Buffer
	if err := json.Compact(&got, resp.ZAIR); err != nil {
		return fmt.Errorf("%s: response ZAIR: %w", key, err)
	}
	if err := json.Compact(&want, zairBytes); err != nil {
		return fmt.Errorf("%s: library ZAIR: %w", key, err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		return fmt.Errorf("%s: response ZAIR differs from the library compile", key)
	}
	return nil
}
