package server

func (s *Server) sighted(j job) {
	s.table.Observe(j)
	s.table.Refresh()
}
