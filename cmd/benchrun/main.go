// Command benchrun regenerates the paper's tables and figures on the
// simulated burst buffer.
//
// Usage:
//
//	benchrun -list
//	benchrun -exp fig8a
//	benchrun -exp all
//
// Every experiment is deterministic: fixed seeds, virtual time.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"themisio/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list available experiments")
	exp := flag.String("exp", "", "experiment id to run, or 'all'")
	flag.Parse()

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, s := range experiments.Registry {
			fmt.Printf("  %-9s %s\n", s.ID, s.Title)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}
	run := func(s *experiments.Spec) {
		start := time.Now()
		res := s.Run()
		fmt.Print(res.Render())
		fmt.Printf("(regenerated in %.1fs wall)\n\n", time.Since(start).Seconds())
	}
	if *exp == "all" {
		for i := range experiments.Registry {
			run(&experiments.Registry[i])
		}
		return
	}
	s := experiments.Lookup(*exp)
	if s == nil {
		fmt.Fprintf(os.Stderr, "benchrun: unknown experiment %q (try -list)\n", *exp)
		os.Exit(2)
	}
	run(s)
}
