package zair

import (
	"encoding/json"
	"fmt"
)

// JSON encoding mirrors the artifact: each instruction is an object with a
// "type" discriminator (Fig. 19).

// MarshalJSON encodes the program as a JSON array of tagged instructions.
func (p *Program) MarshalJSON() ([]byte, error) {
	out := struct {
		Name      string            `json:"name"`
		NumQubits int               `json:"num_qubits"`
		Insts     []json.RawMessage `json:"instructions"`
	}{Name: p.Name, NumQubits: p.NumQubits}
	for i, in := range p.Instructions {
		raw, err := marshalInstruction(in)
		if err != nil {
			return nil, fmt.Errorf("zair: instruction %d: %w", i, err)
		}
		out.Insts = append(out.Insts, raw)
	}
	return json.Marshal(out)
}

func marshalInstruction(in Instruction) (json.RawMessage, error) {
	// Marshal the instruction body, then splice in the type tag.
	var body []byte
	var err error
	switch v := in.(type) {
	case Init:
		body, err = json.Marshal(v)
	case OneQGate:
		body, err = json.Marshal(v)
	case Rydberg:
		body, err = json.Marshal(v)
	case RearrangeJob:
		var insts []json.RawMessage
		if insts, err = marshalMachine(v.Insts); err != nil {
			return nil, err
		}
		body, err = json.Marshal(struct {
			AODID     int               `json:"aod_id"`
			BeginLocs [][]QLoc          `json:"begin_locs"`
			EndLocs   [][]QLoc          `json:"end_locs"`
			Insts     []json.RawMessage `json:"insts"`
			BeginTime float64           `json:"begin_time"`
			EndTime   float64           `json:"end_time"`
		}{
			AODID: v.AODID, BeginLocs: v.BeginLocs, EndLocs: v.EndLocs,
			Insts: insts, BeginTime: v.BeginTime, EndTime: v.EndTime,
		})
	default:
		return nil, fmt.Errorf("unknown instruction type %T", in)
	}
	if err != nil {
		return nil, err
	}
	return spliceType(body, in.Type())
}

// marshalMachine encodes a job's machine instructions, failing on the first
// one that does not encode rather than emitting a truncated job.
func marshalMachine(insts []MachineInst) ([]json.RawMessage, error) {
	out := make([]json.RawMessage, 0, len(insts))
	for i, mi := range insts {
		body, err := json.Marshal(mi)
		if err != nil {
			return nil, fmt.Errorf("machine instruction %d: %w", i, err)
		}
		tagged, err := spliceType(body, mi.MachineType())
		if err != nil {
			return nil, fmt.Errorf("machine instruction %d: %w", i, err)
		}
		out = append(out, tagged)
	}
	return out, nil
}

func spliceType(body []byte, typ string) (json.RawMessage, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, err
	}
	tag, _ := json.Marshal(typ)
	m["type"] = tag
	return json.Marshal(m)
}

// UnmarshalJSON decodes a program from the tagged-array form.
func (p *Program) UnmarshalJSON(data []byte) error {
	var in struct {
		Name      string            `json:"name"`
		NumQubits int               `json:"num_qubits"`
		Insts     []json.RawMessage `json:"instructions"`
	}
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	p.Name, p.NumQubits = in.Name, in.NumQubits
	p.Instructions = nil
	for i, raw := range in.Insts {
		inst, err := unmarshalInstruction(raw)
		if err != nil {
			return fmt.Errorf("zair: instruction %d: %w", i, err)
		}
		p.Instructions = append(p.Instructions, inst)
	}
	return nil
}

func unmarshalInstruction(raw json.RawMessage) (Instruction, error) {
	var tag struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(raw, &tag); err != nil {
		return nil, err
	}
	switch tag.Type {
	case "init":
		var v Init
		err := json.Unmarshal(raw, &v)
		return v, err
	case "1qGate":
		var v OneQGate
		err := json.Unmarshal(raw, &v)
		return v, err
	case "rydberg":
		var v Rydberg
		err := json.Unmarshal(raw, &v)
		return v, err
	case "rearrangeJob":
		var wire struct {
			AODID     int               `json:"aod_id"`
			BeginLocs [][]QLoc          `json:"begin_locs"`
			EndLocs   [][]QLoc          `json:"end_locs"`
			Insts     []json.RawMessage `json:"insts"`
			BeginTime float64           `json:"begin_time"`
			EndTime   float64           `json:"end_time"`
		}
		if err := json.Unmarshal(raw, &wire); err != nil {
			return nil, err
		}
		v := RearrangeJob{
			AODID: wire.AODID, BeginLocs: wire.BeginLocs, EndLocs: wire.EndLocs,
			BeginTime: wire.BeginTime, EndTime: wire.EndTime,
		}
		for _, mraw := range wire.Insts {
			mi, err := unmarshalMachine(mraw)
			if err != nil {
				return nil, err
			}
			v.Insts = append(v.Insts, mi)
		}
		return v, nil
	default:
		return nil, fmt.Errorf("unknown type %q", tag.Type)
	}
}

func unmarshalMachine(raw json.RawMessage) (MachineInst, error) {
	var tag struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(raw, &tag); err != nil {
		return nil, err
	}
	switch tag.Type {
	case "activate":
		var v Activate
		err := json.Unmarshal(raw, &v)
		return v, err
	case "deactivate":
		var v Deactivate
		err := json.Unmarshal(raw, &v)
		return v, err
	case "move":
		var v Move
		err := json.Unmarshal(raw, &v)
		return v, err
	default:
		return nil, fmt.Errorf("unknown machine type %q", tag.Type)
	}
}
