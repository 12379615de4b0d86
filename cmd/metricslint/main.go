// Command metricslint scrapes a live daemon's /metrics and validates the
// Prometheus text exposition with the conformance checks a real scraper
// enforces (see obs.LintPrometheus):
//
//	metricslint -addr localhost:8080
//	metricslint -addr https://host:8443/custom/metrics
//
// A bare host:port or a URL without a path is scraped at /metrics. It
// exits 1 on any conformance problem and 2 when the scrape itself fails.
// The repo's own exporter is held to the same checks by this package's
// TestSelfTestPasses.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"datasculpt/internal/obs"
)

func main() {
	addr := flag.String("addr", "", "scrape this host's /metrics (host:port or URL; required)")
	flag.Parse()
	problems, err := run(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "metricslint:", err)
		os.Exit(2)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "metricslint:", p)
		}
		os.Exit(1)
	}
	fmt.Println("metricslint: ok")
}

// run scrapes addr's metrics endpoint and lints the exposition.
func run(addr string) ([]string, error) {
	if addr == "" {
		return nil, errors.New("-addr is required")
	}
	u, err := metricsURL(addr)
	if err != nil {
		return nil, err
	}
	return lintURL(u)
}

// metricsURL normalizes -addr: a bare host:port gets the http scheme,
// and an empty or "/" path becomes /metrics.
func metricsURL(addr string) (string, error) {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	u, err := url.Parse(addr)
	if err != nil {
		return "", err
	}
	if u.Path == "" || u.Path == "/" {
		u.Path = "/metrics"
	}
	return u.String(), nil
}

func lintURL(url string) ([]string, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return obs.LintPrometheus(resp.Body), nil
}
