// Package obstest holds the determinism oracle of the trace tests:
// CanonicalizeJSONL reduces a JSONL trace to the bytes that must not
// depend on wall time or scheduling. Only tests import it; lint.conf
// exempts it from the unreferenced rule on that account.
package obstest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// volatileKeys are the wall-clock and scheduling artifacts a trace may
// carry; everything else must be deterministic for a fixed seed. The
// cluster-trace additions: "job" (run IDs embed timestamps), "addr"
// (peer addresses), and "lease" (lease IDs count grants, whose order is
// an interleaving artifact).
var volatileKeys = []string{"t", "ms", "worker", "job", "addr", "lease"}

// volatileEvents are event types whose very *occurrence* is a scheduling
// artifact — lease grants, expiry reassignments, live HTTP request logs.
// Stripping keys cannot make such lines deterministic (a run with a
// straggler has more of them), so CanonicalizeJSONL drops the whole
// line. The raw trace keeps them: they are what `nnwc runs timeline`
// renders.
var volatileEvents = map[string]bool{
	"dist_lease":    true,
	"dist_reassign": true,
	"http_request":  true,
}

// CanonicalizeJSONL strips the volatile keys ("t" timestamps, "ms"
// durations, "worker" attribution, "job"/"addr"/"lease" cluster-trace
// identifiers) from every line of a JSONL trace, drops whole lines whose
// event type is itself scheduling-dependent (volatileEvents), and
// re-renders each remaining object with sorted keys. Two traces of the
// same seeded run canonicalize to identical bytes, at any worker count
// and under any lease interleaving.
func CanonicalizeJSONL(data []byte) ([]byte, error) {
	var out bytes.Buffer
	for lineNo, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.UseNumber() // keep the original number spelling
		obj := map[string]any{}
		if err := dec.Decode(&obj); err != nil {
			return nil, fmt.Errorf("obstest: line %d: %w", lineNo+1, err)
		}
		if ev, ok := obj["ev"].(string); ok && volatileEvents[ev] {
			continue
		}
		for _, k := range volatileKeys {
			delete(obj, k)
		}
		keys := make([]string, 0, len(obj))
		for k := range obj {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				out.WriteByte(',')
			}
			kb, _ := json.Marshal(k)
			vb, err := json.Marshal(obj[k])
			if err != nil {
				return nil, fmt.Errorf("obstest: line %d key %q: %w", lineNo+1, k, err)
			}
			out.Write(kb)
			out.WriteByte(':')
			out.Write(vb)
		}
		out.WriteString("}\n")
	}
	return out.Bytes(), nil
}
