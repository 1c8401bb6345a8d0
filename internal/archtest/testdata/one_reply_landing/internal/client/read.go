package client

func land(p []byte, off int, resp *response) int {
	return copy(p[off:], resp.Data)
}
