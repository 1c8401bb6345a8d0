package server

// worker executes what it draws itself, beside serve.
func (s *Server) worker() {
	for !s.closed.Load() {
		n := s.sched.PopBatch(s.now(), nil, s.batch)
		for _, r := range s.batch[:n] {
			in := r.Tag.(*inflight)
			s.sendResponse(in.conn, s.execute(&in.req, &in.resp))
		}
	}
}
