package main

// Inputs of a run: the model artifact, the seeded request pool with its
// in-process reference answers, and the pre-encoded binary frames and
// JSON batch bodies the generator sends.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"

	"cqm/internal/ckpt"
	"cqm/internal/core"
	"cqm/internal/particle"
	"cqm/internal/sensor"
	"cqm/internal/serve"
)

// trainSeed fixes the served model: the model is the deployed
// configuration, not an input, so it is the same on every run.
const trainSeed = 1

// refAnswer is the in-process reference decision for one pool item,
// computed with core.Measure.Score on the same artifact and threshold.
type refAnswer struct {
	status serve.Status
	q      float64 // unquantized q (meaningless for ε)
	typ    byte    // expected response packet type
	q15    uint16  // expected raw quality field of the response frame
}

// inputs is everything a run sends and checks against.
type inputs struct {
	artifact  string  // path of the ckpt measure artifact
	threshold float64 // trained threshold, passed to cqmserve explicitly
	work      *serve.Workload
	items     []serve.Item      // pool items in reference-index order
	refs      []refAnswer       // reference answer per pool item
	tmpl      [][]byte          // request frame per pool item; header patched at send
	jsonItem  [][]byte          // JSON class and cues fragment per pool item
	nodes     []particle.NodeID // node id per pen
	names     []string          // source name per pen
	firstItem []int             // pool index of each pen's round-0 item
}

// prepare trains the model, writes its artifact under dir, builds the
// seeded pool for pens identities, and computes the reference answers.
func prepare(dir string, seed int64, pens int) (*inputs, error) {
	m, threshold, err := serve.TrainQuickModel(trainSeed, 0)
	if err != nil {
		return nil, fmt.Errorf("training model: %w", err)
	}
	in := &inputs{artifact: filepath.Join(dir, "model.json"), threshold: threshold}
	if err := ckpt.WriteArtifact(in.artifact, ckpt.Manifest{Kind: ckpt.KindMeasure}, m); err != nil {
		return nil, fmt.Errorf("writing model artifact: %w", err)
	}
	// The reference scores with the model as read back from the artifact,
	// the same bytes cqmserve loads.
	var loaded core.Measure
	if _, err := ckpt.ReadArtifact(in.artifact, ckpt.KindMeasure, &loaded); err != nil {
		return nil, fmt.Errorf("reading model artifact: %w", err)
	}
	if in.work, err = serve.NewWorkload(serve.WorkloadConfig{Seed: seed}); err != nil {
		return nil, fmt.Errorf("building workload: %w", err)
	}
	n := in.work.Len()
	// Item(0, r) walks the pool from pen 0's offset; index the pool in
	// that order and locate every other pen by its round-0 item.
	index := make(map[*float64]int, n)
	for r := 0; r < n; r++ {
		it := in.work.Item(0, r)
		index[&it.Cues[0]] = r
		in.items = append(in.items, it)
	}
	if len(index) != n {
		return nil, fmt.Errorf("workload pool items share cue slices")
	}
	for p := 0; p < pens; p++ {
		it := in.work.Item(p, 0)
		k, ok := index[&it.Cues[0]]
		if !ok {
			return nil, fmt.Errorf("pen %d: round-0 item not in the pool", p)
		}
		in.firstItem = append(in.firstItem, k)
		in.nodes = append(in.nodes, serve.PenNode(p))
		in.names = append(in.names, serve.PenNode(p).String())
	}
	for k, it := range in.items {
		ref, err := reference(&loaded, threshold, it)
		if err != nil {
			return nil, fmt.Errorf("reference for pool item %d: %w", k, err)
		}
		in.refs = append(in.refs, ref)
		frame, err := serve.EncodeRequest(serve.Request{ClassID: it.ClassID, Cues: it.Cues})
		if err != nil {
			return nil, fmt.Errorf("encoding pool item %d: %w", k, err)
		}
		in.tmpl = append(in.tmpl, frame)
		in.jsonItem = append(in.jsonItem, jsonCues(it))
	}
	return in, nil
}

// reference decides one item the way the server must: ε when the score
// is not computable, accepted when q > threshold, discarded otherwise.
func reference(m *core.Measure, threshold float64, it serve.Item) (refAnswer, error) {
	var ref refAnswer
	q, err := m.Score(it.Cues, sensor.ContextByID(int(it.ClassID)))
	switch {
	case err != nil && core.IsEpsilon(err):
		ref.status = serve.StatusEpsilon
	case err != nil:
		return ref, err
	case q > threshold:
		ref.status, ref.q = serve.StatusAccepted, q
	default:
		ref.status, ref.q = serve.StatusDiscarded, q
	}
	frame, err := serve.EncodeResponse(serve.Response{Status: ref.status, Q: ref.q})
	if err != nil {
		return ref, err
	}
	ref.typ = frame[2]
	ref.q15 = binary.BigEndian.Uint16(frame[18:20])
	return ref, nil
}

// poolMix describes the reference decisions over the pool.
func (in *inputs) poolMix() string {
	var n [3]int
	for _, r := range in.refs {
		n[r.status]++
	}
	total := float64(len(in.refs))
	return fmt.Sprintf("%d items, %.1f%% accepted, %.1f%% discarded, %.1f%% ε",
		len(in.refs), 100*float64(n[serve.StatusAccepted])/total,
		100*float64(n[serve.StatusDiscarded])/total, 100*float64(n[serve.StatusEpsilon])/total)
}

// itemOf returns the pool index of pen's request in round.
func (in *inputs) itemOf(pen, round int) int {
	return (in.firstItem[pen] + round) % len(in.items)
}

// frameRef is one logical request: which pen sends which pool item.
type frameRef struct {
	pen  int32
	item int32
}

// sequence is the order in which a workload's frames are sent. at(n) is
// frame n; a finite sequence has length total (0 = endless).
type sequence struct {
	in    *inputs
	order []int32 // pen order within a round
	total int64
}

func (s *sequence) at(n int64) frameRef {
	p := int64(len(s.order))
	pen := s.order[n%p]
	return frameRef{pen: pen, item: int32(s.in.itemOf(int(pen), int(n/p)))}
}

// penOrder is 0..pens-1, shuffled by seed when shuffle is set.
func penOrder(pens int, seed int64, shuffle bool) []int32 {
	order := make([]int32, pens)
	for i := range order {
		order[i] = int32(i)
	}
	if shuffle {
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(pens, func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	return order
}

// writeFrame writes the request frame of f into dst (which must hold the
// frame) with the given sequence number and send stamp, and returns its
// length. Only the header fields that vary per send are written and the
// header CRC recomputed; the cue section was encoded before timing.
func (in *inputs) writeFrame(dst []byte, f frameRef, seq uint16, sentMillis uint32) int {
	n := copy(dst, in.tmpl[f.item])
	copy(dst[3:11], in.nodes[f.pen][:])
	binary.BigEndian.PutUint16(dst[11:13], seq)
	binary.BigEndian.PutUint32(dst[13:17], sentMillis)
	binary.BigEndian.PutUint16(dst[20:22], crc16(dst[:20]))
	return n
}

// crcTable drives a byte-at-a-time CRC-16/CCITT-FALSE, the checksum of the
// particle header. The generator keeps its own copy so its cost does not
// move with the server's codec.
var crcTable = func() (t [256]uint16) {
	for i := range t {
		crc := uint16(i) << 8
		for b := 0; b < 8; b++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
		t[i] = crc
	}
	return t
}()

func crc16(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc = crc<<8 ^ crcTable[byte(crc>>8)^b]
	}
	return crc
}

// Response frame fields the generator checks.
const (
	typeRejected = 0x14
	maxWindow    = 1 << 16
)

// checkResponse verifies one 22-byte response frame against the frame it
// answers. It returns rejected=true for an explicit reject and an error
// for anything else that is not the reference answer.
func (in *inputs) checkResponse(resp []byte, f frameRef) (rejected bool, err error) {
	if resp[0] != particle.SyncByte || resp[1] != particle.Version {
		return false, fmt.Errorf("response frame header % x", resp[:3])
	}
	if got, want := binary.BigEndian.Uint16(resp[20:22]), crc16(resp[:20]); got != want {
		return false, fmt.Errorf("response CRC 0x%04X, want 0x%04X", got, want)
	}
	if string(resp[3:11]) != string(in.nodes[f.pen][:]) {
		return false, fmt.Errorf("response for node %q answers a frame of %q", resp[3:11], in.names[f.pen])
	}
	if resp[2] == typeRejected {
		return true, nil
	}
	ref := in.refs[f.item]
	if q15 := binary.BigEndian.Uint16(resp[18:20]); resp[2] != ref.typ || q15 != ref.q15 {
		return false, fmt.Errorf("pen %s item %d: answer type 0x%02X q15 %d, reference type 0x%02X q15 %d",
			in.names[f.pen], f.item, resp[2], q15, ref.typ, ref.q15)
	}
	return false, nil
}

// jsonCues renders the class and cue fields of one item's JSON request.
// Cues use the shortest decimal that parses back to the same float64, so
// the server scores exactly the reference's inputs.
func jsonCues(it serve.Item) []byte {
	b := []byte(`,"class":`)
	b = strconv.AppendInt(b, int64(it.ClassID), 10)
	b = append(b, `,"cues":[`...)
	for i, c := range it.Cues {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, c, 'g', -1, 64)
	}
	return append(b, "]}"...)
}

// sentField is the width reserved for a send stamp in a JSON body: the
// decimal milliseconds, padded with spaces (insignificant in JSON) so the
// stamp can be written in place at send time.
const sentField = 10

// batchBody is one pre-encoded POST /score/batch body.
type batchBody struct {
	data   []byte
	stamps []int // offsets of the sent_ms fields
	frames []frameRef
	// expect is the reference answer split around its sent_ms fields.
	expect [][]byte
}

// stampMark stands in for the send stamp when the expected answer is
// rendered; it is split out again, comma included, because the server
// omits a zero stamp.
const stampMark = `,"sent_ms":4000000000`

// encodeBatch renders frames as one batch body; request i carries seq i.
func (in *inputs) encodeBatch(frames []frameRef) batchBody {
	b := batchBody{frames: frames}
	b.data = append(b.data, `{"requests":[`...)
	for i, f := range frames {
		if i > 0 {
			b.data = append(b.data, ',')
		}
		b.data = append(b.data, `{"source":"`...)
		b.data = append(b.data, in.names[f.pen]...)
		b.data = append(b.data, `","seq":`...)
		b.data = strconv.AppendInt(b.data, int64(i), 10)
		b.data = append(b.data, `,"sent_ms":`...)
		b.stamps = append(b.stamps, len(b.data))
		b.data = append(b.data, "0         "...)
		b.data = append(b.data, in.jsonItem[f.item]...)
	}
	b.data = append(b.data, "]}"...)
	b.expect = in.expectBatch(frames)
	return b
}

// expectBatch renders the answer the server must give to frames when all
// of them are decided, with the encoder the server uses.
func (in *inputs) expectBatch(frames []frameRef) [][]byte {
	out := struct {
		Responses []serve.JSONResponse `json:"responses"`
	}{make([]serve.JSONResponse, len(frames))}
	for i, f := range frames {
		ref := in.refs[f.item]
		r := serve.JSONResponse{Source: in.names[f.pen], Seq: uint16(i), SentMillis: 4000000000, Status: ref.status.String()}
		if ref.status != serve.StatusEpsilon {
			q := ref.q
			r.Q = &q
		}
		out.Responses[i] = r
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(out); err != nil {
		panic(err) // unreachable: the value holds only strings and finite numbers
	}
	return bytes.Split(buf.Bytes(), []byte(stampMark))
}

// matches reports whether resp is exactly the expected answer for a body
// stamped with ms.
func (b *batchBody) matches(resp []byte, ms uint32) bool {
	var sepBuf [len(stampMark)]byte
	sep := sepBuf[:0]
	if ms != 0 {
		sep = append(sep, `,"sent_ms":`...)
		sep = strconv.AppendUint(sep, uint64(ms), 10)
	}
	for i, seg := range b.expect {
		if i > 0 {
			if !bytes.HasPrefix(resp, sep) {
				return false
			}
			resp = resp[len(sep):]
		}
		if !bytes.HasPrefix(resp, seg) {
			return false
		}
		resp = resp[len(seg):]
	}
	return len(resp) == 0
}

// stamp writes ms into every sent_ms field of a copy of b.data in dst.
func (b *batchBody) stamp(dst []byte, ms uint32) []byte {
	dst = append(dst[:0], b.data...)
	var num [sentField]byte
	digits := strconv.AppendUint(num[:0], uint64(ms), 10)
	for _, off := range b.stamps {
		field := dst[off : off+sentField]
		n := copy(field, digits)
		for i := n; i < sentField; i++ {
			field[i] = ' '
		}
	}
	return dst
}

// writeFileAtomic writes data to path via the repository's crash-safe
// writer.
func writeFileAtomic(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return ckpt.AtomicWriteFile(path, data, 0o644)
}
