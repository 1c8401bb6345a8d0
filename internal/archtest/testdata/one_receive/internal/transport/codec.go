package transport

func (c *Conn) recv(n int) ([]byte, error) {
	lease, _, err := c.recvInPlace(nil, n)
	return lease, err
}

// recvPlaced is a second receive beside Conn.recv.
func (c *Conn) recvPlaced(dst [][]byte, n int) (int, error) {
	_, landed, err := c.recvInPlace(dst, n)
	return landed, err
}
