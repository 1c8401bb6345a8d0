package client

// readChunk sends a chunk request of its own: a second windowed sender.
func (c *Client) readChunk(mc *conn, req *request) error {
	ch, err := mc.Start(req)
	if err != nil {
		return err
	}
	return (<-ch).err
}
