package main

import (
	"bytes"
	"fmt"
	"sort"

	"dsh/dshsim"
	"dsh/units"
)

// The output checks. Each returns a description of what is wrong, empty
// when the output is correct; a failed check fails the operation that
// produced the output.

// checkRun: DSH never drops; SIH must not drop either where Eq. 1 headroom
// is claimed to make it lossless and the workload says so (burst).
func checkRun(scheme dshsim.Scheme, drops int64, sihLossless bool) string {
	if drops == 0 || (scheme == dshsim.SIH && !sihLossless) {
		return ""
	}
	return fmt.Sprintf("%s dropped %d packets", scheme, drops)
}

// checkFaninPause is the Fig. 11 claim: DSH pauses the fan-in senders no
// longer than SIH does.
func checkFaninPause(sih, dsh units.Time) string {
	if dsh > sih {
		return fmt.Sprintf("DSH fan-in pause %v exceeds SIH %v", dsh, sih)
	}
	return ""
}

// checkCounters: the deterministic counters of a repetition equal those of
// the first repetition of the same seed.
func checkCounters(want, got map[string]float64) string {
	var diff []string
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			diff = append(diff, fmt.Sprintf("%s %v → %v", k, v, got[k]))
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			diff = append(diff, fmt.Sprintf("%s appeared", k))
		}
	}
	if len(diff) == 0 {
		return ""
	}
	sort.Strings(diff)
	return fmt.Sprintf("counters differ between repetitions of one seed: %v", diff)
}

// checkBytes: two renderings of one result are byte-identical (server vs
// serve.Execute, cache hit vs the miss that computed it, repetition vs
// repetition).
func checkBytes(what string, want, got []byte) string {
	if bytes.Equal(want, got) {
		return ""
	}
	i := 0
	for i < len(want) && i < len(got) && want[i] == got[i] {
		i++
	}
	return fmt.Sprintf("%s: result bytes differ at offset %d (%d vs %d bytes)", what, i, len(want), len(got))
}
