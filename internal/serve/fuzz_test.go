package serve

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseSpec feeds arbitrary client bodies through the POST /jobs
// decode path. No input may panic: ParseSpec either rejects it or returns
// a spec whose normalization, validation, and content key all run. An
// accepted spec must also survive its own canonical form: re-parsing
// CanonicalJSON yields the same content key, so the spec echoed in a
// result envelope addresses the result it came from. The seed corpus is
// valid specs for every spec field plus the golden fault scenario; in
// -short CI runs it executes as plain unit tests under the race detector.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		`{"family":"fig11","seed":1}`,
		`{"family":"FIG12","seed":42,"scheme":"dsh","workers":2,"lpWorkers":4}`,
		`{"family":"scale","fidelity":"flow","full":true}`,
		`{"family":"faults","scheme":"SIH"}`,
		`{"family":"fig11"} {"family":"fig12"}`,
		`{"family":"fig11","sheme":"DSH"}`,
	} {
		f.Add([]byte(s))
	}
	golden, err := os.ReadFile(filepath.Join("..", "fault", "testdata", "scenario.golden.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{"family":"faults","seed":3,"faults":` + string(golden) + `}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		sp, err := ParseSpec(body)
		if err != nil {
			return
		}
		sp = sp.Normalized()
		sp.Validate()
		key := sp.Key(testVersion)
		re, err := ParseSpec(sp.CanonicalJSON())
		if err != nil {
			t.Fatalf("canonical form %s does not parse: %v", sp.CanonicalJSON(), err)
		}
		if got := re.Normalized().Key(testVersion); got != key {
			t.Fatalf("canonical form %s keys to %s, original spec to %s", sp.CanonicalJSON(), got, key)
		}
	})
}
