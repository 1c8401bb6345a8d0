package transport

func (m *MuxConn) Call(req *Request) (*Response, error) {
	ch, err := m.Start(req)
	if err != nil {
		return nil, err
	}
	return <-ch, nil
}
