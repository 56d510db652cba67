// Command metricssmoke is the CI smoke test for the observability
// surface. It builds an in-process database with a live degradation
// workload, serves server.MetricsHandler on an ephemeral HTTP listener,
// and then acts as its own scraper:
//
//   - GET /metrics must answer 200 with the Prometheus text content
//     type, lint clean (internal/metrics.Lint), and contain the
//     headline gauge instantdb_degrade_lag_seconds;
//   - GET /healthz must answer 200 "ok lag=...";
//   - the wire Stats opcode must return the same headline key over a
//     real TCP session.
//
// Exit status 0 on success; each violation is printed and makes the
// run fail. Run via `make metrics-smoke`.
package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"instantdb"
	"instantdb/client"
	"instantdb/internal/metrics"
	"instantdb/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "metrics-smoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("metrics-smoke: PASS")
}

func run() error {
	db, err := instantdb.Open(instantdb.Config{})
	if err != nil {
		return err
	}
	defer db.Close()
	if err := db.ExecScript(`
CREATE DOMAIN location TREE LEVELS (address, city, region, country)
  PATH ('Dam 1', 'Amsterdam', 'Noord-Holland', 'Netherlands');
CREATE POLICY locpol ON location (
  HOLD address FOR '15m', HOLD city FOR '1h',
  HOLD region FOR '1d', HOLD country FOR '1mo') THEN DELETE;
CREATE TABLE visits (id INT PRIMARY KEY,
  place TEXT DEGRADABLE DOMAIN location POLICY locpol);
INSERT INTO visits (id, place) VALUES (1, 'Dam 1'), (2, 'Dam 1')
`); err != nil {
		return fmt.Errorf("workload: %w", err)
	}

	// HTTP side: /metrics and /healthz on an ephemeral port.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: server.MetricsHandler(db)}
	go hs.Serve(ln) //nolint:errcheck
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	body, ctype, err := get(base + "/metrics")
	if err != nil {
		return err
	}
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		return fmt.Errorf("/metrics content type %q, want Prometheus text 0.0.4", ctype)
	}
	if errs := metrics.Lint(body); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "metrics-smoke: lint:", e)
		}
		return fmt.Errorf("/metrics exposition has %d lint error(s)", len(errs))
	}
	for _, want := range []string{
		"instantdb_degrade_lag_seconds",
		"instantdb_degrade_queue_depth",
		"instantdb_active_txns",
		"instantdb_index_entries{index=",
		"instantdb_index_bytes{index=",
		"instantdb_storage_directory_bytes{table=",
	} {
		if !strings.Contains(string(body), want) {
			return fmt.Errorf("/metrics missing %s", want)
		}
	}
	health, _, err := get(base + "/healthz")
	if err != nil {
		return err
	}
	if !strings.HasPrefix(string(health), "ok lag=") {
		return fmt.Errorf("/healthz answered %q, want \"ok lag=...\"", health)
	}

	// Wire side: the Stats opcode over a real TCP session.
	srv := server.New(db, server.Options{})
	sln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.Serve(sln) //nolint:errcheck
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	conn, err := client.Dial(ctx, sln.Addr().String())
	if err != nil {
		return err
	}
	defer conn.Close()
	stats, err := conn.Stats(ctx)
	if err != nil {
		return err
	}
	if _, ok := stats["instantdb_degrade_lag_seconds"]; !ok {
		return fmt.Errorf("wire Stats missing instantdb_degrade_lag_seconds (%d keys)", len(stats))
	}
	return nil
}

// get fetches url, requiring status 200, and returns body and
// Content-Type.
func get(url string) ([]byte, string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, resp.Header.Get("Content-Type"), nil
}
