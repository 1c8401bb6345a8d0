package transport

func pipeline(mc *MuxConn, reqs []*Request) error {
	for _, req := range reqs {
		if _, err := mc.Start(req); err != nil {
			return err
		}
	}
	return nil
}
