package server

import "specrpc/internal/xdr"

// handleCall runs handle with a stream of its own, as one worker would.
func (s *Server) handleCall(req, replyBuf []byte) ([]byte, error) {
	var bs xdr.BufStream
	return s.handle(req, replyBuf, &bs)
}
