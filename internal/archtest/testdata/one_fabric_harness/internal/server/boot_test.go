package server

import "testing"

// A test that boots its server by hand, beside the harness.
func TestBootsByHand(t *testing.T) {
	srv := New(listen(t, 1)[0], Config{Quiet: true})
	go srv.Serve()
	t.Cleanup(srv.Close)
}
