package main

import "sariadne/internal/telemetry"

// Front-end instruments: one request = one datagram or one gateway call,
// both counted by observed. Layer-level timers (parse, classify, match,
// registry insert) live in the internal packages and show up on the same
// /metrics page.
var (
	requestsTotal = telemetry.NewCounter("sdpd_requests_total",
		"requests handled across the UDP and HTTP front ends")
	requestErrorsTotal = telemetry.NewCounter("sdpd_request_errors_total",
		"requests rejected with an error code")
	requestSeconds = telemetry.NewHistogram("sdpd_request_seconds",
		"end-to-end handling latency of one request")
	partialRepliesTotal = telemetry.NewCounter("sdpd_partial_replies_total",
		"query replies served with an incomplete-coverage marker")
	healthyGauge = telemetry.NewBoolGauge("sdpd_healthy",
		"latest health probe verdict: store, gateway and backbone transport all up")
	readyGauge = telemetry.NewBoolGauge("sdpd_ready",
		"latest readiness verdict: healthy and a backbone peer heard recently")
)
