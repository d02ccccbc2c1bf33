package dist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// StateFileName is the journal's conventional name inside a run directory
// (`-trace` runs default their `-dist-state` here, and `nnwc runs show`
// looks for it to report distributed progress).
const StateFileName = "dist-state.jsonl"

// The journal is JSONL: one header line identifying the job, then one
// line per completed task, appended as results arrive. A coordinator
// restarted on the same journal (matching fingerprint) preloads those
// results and only leases out what is missing — resumable runs. A torn
// final line (crash mid-append) is ignored.
type stateHeader struct {
	JobID       string `json:"job_id"`
	Kind        string `json:"kind"`
	NumTasks    int    `json:"num_tasks"`
	Fingerprint string `json:"fingerprint"`
}

type stateEntry struct {
	Index   int             `json:"index"`
	Payload json.RawMessage `json:"payload,omitempty"`
	Error   string          `json:"error,omitempty"`
	// Events is the task's worker-shipped obs event block (JSONL),
	// journaled only when the coordinator is merging a cluster trace so a
	// resumed run still writes a complete one.
	Events string `json:"events,omitempty"`
}

// readState loads a journal, verifying it belongs to the spec with the
// given fingerprint. A missing file is (nil, nil): a fresh run.
func readState(path, fingerprint string) ([]stateEntry, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		return nil, nil // empty file: treat as fresh
	}
	var hdr stateHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("dist: state %s: bad header: %w", path, err)
	}
	if hdr.Fingerprint != fingerprint {
		return nil, fmt.Errorf("dist: state %s belongs to a different job (fingerprint %.12s, want %.12s) — delete it or point -dist-state elsewhere",
			path, hdr.Fingerprint, fingerprint)
	}
	var entries []stateEntry
	for sc.Scan() {
		var e stateEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			break // torn tail from a crash mid-append; everything before it counts
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return entries, nil
}

// stateWriter appends entries to the journal, creating it (with header)
// when absent.
type stateWriter struct {
	f *os.File
}

func openStateWriter(path string, hdr stateHeader, fresh bool) (*stateWriter, error) {
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if fresh {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, err
	}
	if fresh {
		line, err := json.Marshal(hdr)
		if err == nil {
			_, err = f.Write(append(line, '\n'))
		}
		if err != nil {
			_ = f.Close() // the header write error is the one worth returning
			return nil, err
		}
	}
	return &stateWriter{f: f}, nil
}

func (w *stateWriter) append(e stateEntry) error {
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	_, err = w.f.Write(append(line, '\n'))
	return err
}

func (w *stateWriter) close() error { return w.f.Close() }

// StateSummary is what `nnwc runs show` reports about a dist journal.
type StateSummary struct {
	JobID string
	Kind  string
	Progress
}

// ReadStateSummary summarizes a journal without needing its spec: job
// identity plus completed/failed/total counts (duplicate lines, possible
// across a crash-resume boundary, count once).
func ReadStateSummary(path string) (*StateSummary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("dist: state %s is empty", path)
	}
	var hdr stateHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("dist: state %s: bad header: %w", path, err)
	}
	sum := &StateSummary{JobID: hdr.JobID, Kind: hdr.Kind, Progress: Progress{Total: hdr.NumTasks}}
	seen := make(map[int]bool)
	for sc.Scan() {
		var e stateEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			break
		}
		if seen[e.Index] {
			continue
		}
		seen[e.Index] = true
		if e.Error != "" {
			sum.Failed++
		} else {
			sum.Completed++
		}
	}
	return sum, sc.Err()
}

// writeFileAtomic writes data to path through a temporary sibling that is
// renamed into place, so a reader never sees a torn file and concurrent
// writers of the same bytes race harmlessly.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // gone once renamed
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close() // the write error is the one worth returning
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
