package cluster

import (
	"testing"
	"time"
)

func TestWaitsOnTheClock(t *testing.T) {
	time.Sleep(time.Millisecond)
	time.Sleep(time.Millisecond)
	time.Sleep(time.Millisecond)
	time.Sleep(time.Millisecond)
	time.Sleep(time.Millisecond)
	time.Sleep(time.Millisecond)
	time.Sleep(time.Millisecond)
	time.Sleep(time.Millisecond)
	time.Sleep(time.Millisecond)
	time.Sleep(time.Millisecond)
	time.Sleep(time.Millisecond)
	time.Sleep(time.Millisecond)
	time.Sleep(time.Millisecond)
	time.Sleep(time.Millisecond)
	time.Sleep(time.Millisecond)
	time.Sleep(time.Millisecond)
	time.Sleep(time.Millisecond)
	time.Sleep(time.Millisecond)
	time.Sleep(time.Millisecond)
	time.Sleep(time.Millisecond)
	time.Sleep(time.Millisecond)
	time.Sleep(time.Millisecond)
	time.Sleep(time.Millisecond)
	time.Sleep(time.Millisecond)
	time.Sleep(time.Millisecond)
	time.Sleep(time.Millisecond)
	time.Sleep(time.Millisecond)
}
