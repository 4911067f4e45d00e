#ifndef IDEBENCH_NET_PROTOCOL_H_
#define IDEBENCH_NET_PROTOCOL_H_

/// \file protocol.h
/// Message layer of the serving protocol: the JSON shapes that travel
/// inside frames (net/frame.h).  Every message is an object with a
/// `type` member; see README "Network serving" for the full spec.
///
/// Client -> server:
///   hello          {type, tenant, protocol}
///   open_session   {type}
///   interaction    {type, session, request, interaction: <workflow JSON>}
///   cancel         {type, session, query}
///   think          {type, session, micros}
///   close_session  {type, session}
///   append         {type, request, rows: [[field, ...], ...],
///                   publish: bool}   <- streaming ingest: fields are wire
///                   strings in fact-schema column order (the CSV text
///                   contract); publish moves the epoch watermark after
///                   the batch stages
///   stats          {type}
///   ping           {type, id}
///
/// Server -> client:
///   hello_ok       {type, protocol, engine}
///   session_opened {type, session}
///   submitted      {type, session, request, degrade_level, budget_scale,
///                   queries: [{query, viz, unsupported}]}
///   rejected       {type, session, request, reason, retry_after_ms,
///                   degrade_level}   <- explicit refusal, never silent
///                   (also answers refused `append` frames, with reasons
///                   "ingest_shed" / "no_ingestor" / "invalid_rows" /
///                   "ingest_capacity" / "ingest_fault")
///   appended       {type, request, staged, watermark, published}
///   update         {type, ... see AppendUpdateFrame}
///   session_closed {type, session}
///   stats_report   {type, scheduler: {...}, ratekeeper: {...},
///                   server: {...}}
///   error          {type, code, message}
///   pong           {type, id}

#include <string>

#include "common/json.h"
#include "common/result.h"
#include "query/result.h"
#include "session/session.h"

namespace idebench::net {

/// Protocol revision; bumped on incompatible frame-shape changes.
inline constexpr int kProtocolVersion = 1;

/// Serializes a query result.  Bins are emitted sorted by packed key so
/// equal results serialize byte-identically (frames diff cleanly in
/// logs and golden comparisons).
JsonValue QueryResultToJson(const query::QueryResult& result);
Result<query::QueryResult> QueryResultFromJson(const JsonValue& j);

/// Appends one pushed update (type "update") to `*out` as a complete
/// frame (net/frame.h), written straight from the struct with no
/// JsonValue tree in between.  Members, in order: type, session, query,
/// interaction, viz, confidence, progress, virtual_time, consumed,
/// budget, final, completed, cancelled, unsupported, failed, result;
/// `result` is byte-identical to `QueryResultToJson(update.result).Dump()`.
void AppendUpdateFrame(const session::ProgressiveUpdate& update,
                       std::string* out);
Result<session::ProgressiveUpdate> UpdateFromJson(const JsonValue& j);

/// Message constructors (the trivial ones clients and server share).
JsonValue MakeHello(const std::string& tenant);
JsonValue MakeError(const Status& status);

/// The `type` member, or "" when missing/not a string.
std::string MessageType(const JsonValue& message);

}  // namespace idebench::net

#endif  // IDEBENCH_NET_PROTOCOL_H_
