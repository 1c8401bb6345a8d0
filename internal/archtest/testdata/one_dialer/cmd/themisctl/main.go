package main

import (
	"net"
	"time"
)

func dial(addr string) (net.Conn, error) {
	d := net.Dialer{Timeout: time.Second}
	return d.Dial("tcp", addr)
}
