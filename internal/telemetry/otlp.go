package telemetry

import (
	"encoding/json"
	"io"
	"strconv"
)

// OTLP/JSON export: the subset of the OpenTelemetry trace protobuf's
// canonical JSON mapping needed to hand a FlowTracer ring to any OTLP
// collector or trace viewer. Per the mapping, trace/span IDs are
// lowercase hex strings and uint64 nanosecond timestamps are encoded
// as decimal strings.

type otlpExport struct {
	ResourceSpans []otlpResourceSpans `json:"resourceSpans"`
}

type otlpResourceSpans struct {
	Resource   otlpResource     `json:"resource"`
	ScopeSpans []otlpScopeSpans `json:"scopeSpans"`
}

type otlpResource struct {
	Attributes []otlpKeyValue `json:"attributes"`
}

type otlpScopeSpans struct {
	Scope otlpScope  `json:"scope"`
	Spans []otlpSpan `json:"spans"`
}

type otlpScope struct {
	Name string `json:"name"`
}

type otlpKeyValue struct {
	Key   string    `json:"key"`
	Value otlpValue `json:"value"`
}

type otlpValue struct {
	StringValue string `json:"stringValue"`
}

type otlpSpan struct {
	TraceID           string         `json:"traceId"`
	SpanID            string         `json:"spanId"`
	ParentSpanID      string         `json:"parentSpanId,omitempty"`
	Name              string         `json:"name"`
	Kind              int            `json:"kind"`
	StartTimeUnixNano string         `json:"startTimeUnixNano"`
	EndTimeUnixNano   string         `json:"endTimeUnixNano"`
	Attributes        []otlpKeyValue `json:"attributes,omitempty"`
}

const otlpSpanKindInternal = 1

// OTLPExport converts spans into the OTLP/JSON request shape under one
// resource named service. Spans predating the trace model (empty
// TraceID) are skipped — OTLP requires valid IDs.
func OTLPExport(service string, spans []Span) any {
	out := make([]otlpSpan, 0, len(spans))
	for _, s := range spans {
		if s.TraceID == "" || s.SpanID == "" {
			continue
		}
		os := otlpSpan{
			TraceID:           s.TraceID,
			SpanID:            s.SpanID,
			ParentSpanID:      s.ParentID,
			Name:              s.Place + "/" + string(s.Stage),
			Kind:              otlpSpanKindInternal,
			StartTimeUnixNano: strconv.FormatInt(s.Start, 10),
			EndTimeUnixNano:   strconv.FormatInt(s.End(), 10),
			Attributes: []otlpKeyValue{
				{Key: "pera.flow", Value: otlpValue{StringValue: s.Flow}},
				{Key: "pera.stage", Value: otlpValue{StringValue: string(s.Stage)}},
			},
		}
		if s.Note != "" {
			os.Attributes = append(os.Attributes, otlpKeyValue{Key: "pera.note", Value: otlpValue{StringValue: s.Note}})
		}
		out = append(out, os)
	}
	return otlpExport{ResourceSpans: []otlpResourceSpans{{
		Resource: otlpResource{Attributes: []otlpKeyValue{
			{Key: "service.name", Value: otlpValue{StringValue: service}},
		}},
		ScopeSpans: []otlpScopeSpans{{
			Scope: otlpScope{Name: "pera/telemetry"},
			Spans: out,
		}},
	}}}
}

// WriteOTLP renders spans as an OTLP/JSON trace export document.
func WriteOTLP(w io.Writer, service string, spans []Span) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(OTLPExport(service, spans))
}
