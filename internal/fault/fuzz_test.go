package fault

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseScenario feeds arbitrary bytes through the scenario decoder
// behind `dshbench -faults` and the faults field of a dshserve spec. No
// input may panic: Parse either rejects it or returns a scenario that
// validates (or is refused) against both a single-switch and a leaf–spine
// network, and whose Marshal form parses back to the same bytes. The seed
// corpus is the golden fixture plus small valid and invalid shapes; in
// -short CI runs it executes as plain unit tests under the race detector.
func FuzzParseScenario(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "scenario.golden.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte(`{"name":"x","events":[]}`))
	f.Add([]byte(`{"name":"x","events":[{"kind":"link-flap","node":0,"at":-1}]}`))
	f.Add([]byte(`{"name":"x","events":[]} garbage`))

	single, ls := testNet(f), twoTier(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		sc.Validate(single)
		sc.Validate(ls.Network)
		out, err := sc.Marshal()
		if err != nil {
			t.Fatalf("accepted scenario does not marshal: %v", err)
		}
		re, err := Parse(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("marshalled scenario %s does not parse: %v", out, err)
		}
		again, _ := re.Marshal()
		if !bytes.Equal(again, out) {
			t.Fatalf("scenario round trip drifted:\n%s\n%s", out, again)
		}
	})
}
