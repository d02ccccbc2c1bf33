package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"nnwc/internal/dist"
)

// TestTailCoordinatorVanishesAfterProgress: a coordinator that answered
// once and then stopped listening finished its job, so tail exits 0.
func TestTailCoordinatorVanishesAfterProgress(t *testing.T) {
	var srv *httptest.Server
	srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(dist.Progress{Completed: 1, Total: 4})
		go srv.Close() // returns once this reply is written
	}))
	if err := tailCoordinator(srv.URL, time.Millisecond); err != nil {
		t.Fatalf("tail after progress was seen: %v", err)
	}
}

// TestTailCoordinatorNeverAnswered: a coordinator that never answered is
// an error.
func TestTailCoordinatorNeverAnswered(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close()
	if err := tailCoordinator(url, time.Millisecond); err == nil {
		t.Fatal("tail of a coordinator that never answered returned nil")
	}
}
