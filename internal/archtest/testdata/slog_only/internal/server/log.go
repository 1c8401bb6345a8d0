package server

import stdlog "log"

func warn(err error) {
	stdlog.Printf("drain: %v", err)
}
