package server

// drainer executes what it draws itself, beside serve.
func (s *Server) drainer() {
	var one [1]*sched.Request
	for s.sched.PopBatch(s.now(), nil, one[:]) == 1 {
		in := one[0].Tag.(*inflight)
		s.sendResponse(in.conn, s.execute(&in.req, &in.resp))
	}
}
