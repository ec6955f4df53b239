// Command figures regenerates the data behind every table and figure of
// the paper's evaluation section.
//
// Usage:
//
//	figures -fig fig5            # one figure
//	figures -fig all             # everything, in paper order
//	figures -list                # list figure identifiers
//	figures -refs 500000 -fig fig3
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"twolevel/internal/figures"
	"twolevel/internal/obs"
	"twolevel/internal/sweep"
)

func main() {
	var (
		fig        = flag.String("fig", "all", "figure id (fig1..fig26, table1, ext...) or 'all'")
		refs       = flag.Uint64("refs", 0, "trace length per configuration (default 2,000,000)")
		list       = flag.Bool("list", false, "list figure identifiers and exit")
		plot       = flag.Bool("plot", false, "render series figures as ASCII log-log plots")
		out        = flag.String("o", "", "write each figure to <dir>/<id>.txt instead of stdout")
		listen     = flag.String("listen", "", "serve /metrics, /progress, and /debug/pprof on this address while running")
		metricsOut = flag.String("metrics", "", "write the final metrics snapshot as JSON to this file")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(figures.IDs(), "\n"))
		return
	}

	var reg *obs.Registry
	if *listen != "" || *metricsOut != "" {
		reg = obs.NewRegistry()
	}
	if *listen != "" {
		srv, err := obs.Serve(*listen, reg, sweep.ProgressSummary(reg))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "figures: observability on http://%s (/metrics /progress /debug/pprof)\n", srv.Addr())
	}

	h := figures.NewHarness(figures.Config{Refs: *refs, Metrics: reg})
	ids := figures.IDs()
	if *fig != "all" {
		ids = strings.Split(*fig, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
		}
	}
	// Plan only the requested figures: ByID alone would plan them all.
	if err := h.Plan(ids...); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	for _, id := range ids {
		f, err := h.ByID(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		dst := io.Writer(os.Stdout)
		var file *os.File
		if *out != "" {
			file, err = os.Create(filepath.Join(*out, id+".txt"))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			dst = file
		}
		if err := figures.Render(dst, f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *plot {
			if err := figures.Plot(dst, f, 0, 0); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if file != nil {
			if err := file.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", filepath.Join(*out, id+".txt"))
		}
	}
	if *metricsOut != "" {
		if err := obs.WriteSnapshotFile(*metricsOut, reg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "figures: metrics snapshot saved to %s\n", *metricsOut)
	}
}
