package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Record framing: every payload written to a WAL segment or snapshot
// file is wrapped as
//
//	u32 LE  payload length
//	u32 LE  CRC-32C of the payload
//	[]byte  payload
//
// so a reader can walk a file record by record and detect exactly where
// a kill -9 tore the tail: a header that does not fit, a length the file
// cannot satisfy, an absurd length, or a checksum mismatch all mean "the
// durable prefix ends here".

// recordHeaderSize is the framing overhead per record.
const recordHeaderSize = 8

// MaxRecordBytes bounds one record's payload. A length field beyond it
// is treated as damage rather than an allocation request — WAL bytes are
// untrusted input after a crash.
const MaxRecordBytes = 64 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errTorn reports that a record could not be read intact: the durable
// prefix of the file ends at the record's start offset.
var errTorn = errors.New("durable: torn or corrupt record")

// recordHeader is payload's framing header.
func recordHeader(payload []byte) [recordHeaderSize]byte {
	var h [recordHeaderSize]byte
	binary.LittleEndian.PutUint32(h[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(h[4:], crc32.Checksum(payload, castagnoli))
	return h
}

// appendRecordMulti frames the concatenation of parts onto dst as one
// record, computing the checksum incrementally so the parts never have
// to be joined outside the destination buffer.
func appendRecordMulti(dst []byte, parts [][]byte) []byte {
	total, crc := 0, uint32(0)
	for _, p := range parts {
		total += len(p)
		crc = crc32.Update(crc, castagnoli, p)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(total))
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	for _, p := range parts {
		dst = append(dst, p...)
	}
	return dst
}

// parseRecord reads the record at the head of buf, returning its payload
// and the total framed size consumed. Any damage — short header, short
// body, oversized length, checksum mismatch — returns errTorn.
func parseRecord(buf []byte) (payload []byte, consumed int, err error) {
	if len(buf) < recordHeaderSize {
		return nil, 0, errTorn
	}
	n := binary.LittleEndian.Uint32(buf)
	if n > MaxRecordBytes {
		return nil, 0, fmt.Errorf("%w: length %d", errTorn, n)
	}
	want := binary.LittleEndian.Uint32(buf[4:])
	end := recordHeaderSize + int(n)
	if len(buf) < end {
		return nil, 0, errTorn
	}
	payload = buf[recordHeaderSize:end]
	if crc32.Checksum(payload, castagnoli) != want {
		return nil, 0, fmt.Errorf("%w: checksum mismatch", errTorn)
	}
	return payload, end, nil
}
