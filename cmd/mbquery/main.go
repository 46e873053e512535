// Command mbquery runs a MacroBase query over a CSV file, in one-shot
// or exponentially weighted streaming mode, and prints the ranked
// explanations (paper §3.2 operating modes).
//
// Usage:
//
//	mbquery -config query.json
//	mbquery -config query.json -top 20
//
// The config is the JSON form documented in internal/ingest:
//
//	{
//	  "input": "data.csv",
//	  "metrics": ["power_drain"],
//	  "attributes": ["device_id", "app_version"],
//	  "streaming": false,
//	  "minSupport": 0.001,
//	  "minRiskRatio": 3
//	}
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"macrobase/internal/ingest"
	"macrobase/internal/pipeline"
)

func main() {
	var (
		configPath = flag.String("config", "", "path to JSON query config (required)")
		top        = flag.Int("top", 50, "maximum explanations to print")
	)
	flag.Parse()
	if *configPath == "" {
		fmt.Fprintln(os.Stderr, "mbquery: -config is required")
		os.Exit(2)
	}
	if err := runQuery(*configPath, *top, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mbquery:", err)
		os.Exit(1)
	}
}

func runQuery(configPath string, top int, w io.Writer) error {
	cfg, err := ingest.LoadQueryConfig(configPath)
	if err != nil {
		return err
	}
	var in io.Reader
	if cfg.Input == "-" {
		in = os.Stdin
	} else {
		f, err := os.Open(cfg.Input)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	res, err := pipeline.RunQuery(cfg, in)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "points=%d outliers=%d explanations=%d\n",
		res.Stats.Points, res.Stats.Outliers, len(res.Explanations))
	for i, e := range res.Explanations {
		if i >= top {
			fmt.Fprintf(w, "... %d more\n", len(res.Explanations)-top)
			break
		}
		fmt.Fprintf(w, "%3d. %s\n", i+1, e.String())
		if e.CI.Level > 0 {
			fmt.Fprintf(w, "     %.0f%% CI [%.2f, %.2f]\n", e.CI.Level*100, e.CI.Lo, e.CI.Hi)
		}
	}
	return nil
}
