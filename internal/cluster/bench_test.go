package cluster_test

import (
	"bytes"
	"fmt"
	"testing"

	"themisio/internal/client"
)

// BenchmarkStripedThroughput measures one client's aggregate bandwidth
// (write + read back) against 1 and 4 servers with files striped over
// the full fabric — the scaling claim of client-side striping: fan-out
// parallelism grows with the server count.
//
// Run: go test -bench StripedThroughput ./internal/cluster/
func BenchmarkStripedThroughput(b *testing.B) {
	const payload = 8 << 20
	for _, n := range []int{1, 4} {
		b.Run(fmt.Sprintf("servers=%d", n), func(b *testing.B) {
			_, addrs := startFabric(b, n)
			// Pinned to one connection per server: this is the
			// single-conn baseline BenchmarkStripedThroughputPooled is
			// measured against.
			c, err := client.DialOpts(jobInfo("bench"), addrs, client.Options{
				Stripes: n, StripeUnit: 256 << 10, ConnsPerServer: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			data := bytes.Repeat([]byte{0xa5}, payload)
			got := make([]byte, payload)
			b.SetBytes(2 * payload) // write + read per iteration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				path := fmt.Sprintf("/bench-%d.bin", i)
				f, err := c.Open(path, true)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := f.Write(data); err != nil {
					b.Fatal(err)
				}
				if _, err := f.Seek(0, 0); err != nil {
					b.Fatal(err)
				}
				if m, err := f.Read(got); err != nil || m != payload {
					b.Fatalf("read: n=%d err=%v", m, err)
				}
				if err := f.Close(); err != nil {
					b.Fatal(err)
				}
				// Unlink releases the extents so capacity never runs out
				// regardless of b.N.
				if err := c.Unlink(path); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStripedThroughputPooled measures the aggregate bandwidth of
// concurrent striped streams against a 4-server fabric, with the
// per-server connection pool sized 1 (the pre-pool wire shape: every
// stream of a server multiplexed onto one conn) and 4 (each stream
// rides its own slot by stripe affinity, reads spread over all slots).
// The conns=4 case is the PR's headline number: ≥1.3× the committed
// single-conn BenchmarkStripedThroughput/servers=4 baseline.
//
// Run: go test -bench StripedThroughputPooled ./internal/cluster/
func BenchmarkStripedThroughputPooled(b *testing.B) {
	const (
		payload = 8 << 20
		writers = 4
	)
	for _, conns := range []int{1, 4} {
		b.Run(fmt.Sprintf("conns=%d", conns), func(b *testing.B) {
			_, addrs := startFabric(b, 4)
			cs := make([]*client.Client, writers)
			for w := range cs {
				c, err := client.DialOpts(jobInfo(fmt.Sprintf("bench%d", w)), addrs, client.Options{
					Stripes: 4, StripeUnit: 256 << 10, ConnsPerServer: conns,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				cs[w] = c
			}
			data := bytes.Repeat([]byte{0xa5}, payload)
			b.SetBytes(2 * payload * writers) // write + read per stream per iteration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				errs := make(chan error, writers)
				for w := 0; w < writers; w++ {
					go func(w int) {
						errs <- func() error {
							c := cs[w]
							path := fmt.Sprintf("/bench-p%d-%d.bin", w, i)
							f, err := c.Open(path, true)
							if err != nil {
								return err
							}
							if _, err := f.Write(data); err != nil {
								return err
							}
							if _, err := f.Seek(0, 0); err != nil {
								return err
							}
							got := make([]byte, payload)
							if m, err := f.Read(got); err != nil || m != payload {
								return fmt.Errorf("read: n=%d err=%v", m, err)
							}
							if err := f.Close(); err != nil {
								return err
							}
							return c.Unlink(path)
						}()
					}(w)
				}
				for w := 0; w < writers; w++ {
					if err := <-errs; err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
