//go:build unix

package serve

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"nnwc/internal/httpx"
)

// floorClients is the number of keep-alive loopback clients, as in
// perfbench's predict_single.
const floorClients = 2

// BenchmarkServeFloor measures a served one-row prediction against the
// net/http floor of the host it runs on. Each case runs the production
// server stack (httpx.NewServer on a loopback listener, two keep-alive
// clients sending one-row POST /predict) around a different handler:
//
//   - noop: httpx.Instrument around a one-route mux whose handler reads
//     the body and writes a fixed prediction-sized reply, the floor;
//   - handler: httpx.Instrument around Handler(), as Start wires it;
//   - handler-bare: Handler() alone, so that handler minus handler-bare is
//     what the middleware adds.
//
// ns/op is wall time per request with both clients in flight; cpu-us/op is
// the process's user plus system CPU per request, clients included.
//
//	go test -run '^$' -bench ServeFloor -count 6 ./internal/serve/
func BenchmarkServeFloor(b *testing.B) {
	path := writeTestModel(b, b.TempDir(), 2)
	s, _ := newTestServer(b, Config{ModelPath: path})
	body := []byte(`{"x":[1.5,-0.25]}`)
	reply := []byte(`{"predictions":[[10.123456789012345,3.1234567890123456]],"target_names":["u","v"],"model":{"ref":"default@v1"}}` + "\n")
	noop := http.NewServeMux()
	noop.HandleFunc("POST /predict", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write(reply)
	})
	instrument := func(mux *http.ServeMux) http.Handler {
		return httpx.Instrument(httpx.InstrumentOptions{Service: "serve"}, mux)
	}
	for _, c := range []struct {
		name string
		h    http.Handler
	}{
		{"noop", instrument(noop)},
		{"handler", instrument(s.Handler())},
		{"handler-bare", s.Handler()},
	} {
		b.Run(c.name, func(b *testing.B) { benchServeStack(b, c.h, body) })
	}
}

// benchServeStack serves h on a loopback listener and has floorClients
// keep-alive clients post body b.N times between them.
func benchServeStack(b *testing.B, h http.Handler, body []byte) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := httpx.NewServer(h, httpx.Timeouts{})
	go srv.Serve(ln)
	defer srv.Close()
	tr := &http.Transport{MaxIdleConnsPerHost: floorClients}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	url := "http://" + ln.Addr().String() + "/predict"
	post := func() error {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}
	clients := func(n int) {
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < floorClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for next.Add(1) <= int64(n) {
					if err := post(); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	clients(4 * floorClients) // open the keep-alive connections
	b.ResetTimer()
	cpu0 := cpuTime(b)
	clients(b.N)
	b.StopTimer()
	b.ReportMetric(float64(cpuTime(b)-cpu0)/float64(time.Microsecond)/float64(b.N), "cpu-us/op")
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
