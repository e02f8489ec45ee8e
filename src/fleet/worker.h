#pragma once
// Fleet worker: the subprocess / remote-process side of fleet mode.
//
// Two entry points share one protocol loop:
//
// `fd-attack --worker` calls run_worker with its inherited pipe fds and
// never touches argv beyond that -- everything about the experiment
// arrives as a kConfig frame, tasks as kTask frames, and the loop exits
// on kShutdown (or EOF, when the coordinator died).
//
// `fd-attack --serve addr:port` runs the SAME loop behind a TCP accept
// loop: each coordinator connection must open with a kAuth frame whose
// token matches `--token`, then speaks the identical protocol. Worker
// state (the configured session, completed task results, staged files)
// lives OUTSIDE the connection, so a dropped link is survivable: the
// coordinator reconnects, re-sends the config (same session hash keeps
// the session) and the in-flight task, and a task that already finished
// is answered from the result cache -- it executes exactly once, which
// is what keeps scan totals and quality counts byte-identical to a
// quiet network. Serve workers have no shared filesystem with the
// coordinator: tasks arrive with `stage` set, paths are remapped into
// --work-dir, capture shards stream back over kFile* frames (resumable
// at chunk granularity), and the merged archive is pushed in before
// attack tasks.
//
// The worker is the far end of the fleet's stage executor: it runs the
// two operations the stage plan (attack/stage_driver.h) delegates, with
// the same code the in-process executor runs --
//
//   capture tasks  -> sca::run_campaign_to_archive on the plan's
//                     per-shard campaign (sca::shard_campaign) from the
//                     spec's (seed, traces, fault offset), so shard
//                     files are byte-identical to an in-process run;
//   attack tasks   -> attack::attack_checkpointed over the task's
//                     component ids in sub-batches of checkpoint_every,
//                     persisting its own .fdckpt (at the task-stable
//                     path from the spec) after every batch -- a
//                     reassigned shard resumes from the dead worker's
//                     checkpoint and completes bit-identically.
//
// Liveness is a dedicated heartbeat thread ticking kHeartbeat frames
// every heartbeat_interval_ms; all transport writes go through one
// mutex so frames from the heartbeat thread, the telemetry-forwarding
// sink, and the task loop never interleave mid-frame.

#include <cstdint>
#include <string>

namespace fd::fleet {

// Runs the worker protocol loop reading frames from `in_fd` and writing
// frames to `out_fd` (blocking I/O on both). Returns the process exit
// code: 0 after a clean kShutdown or coordinator EOF, nonzero on a
// corrupt stream or an unrecoverable local error.
int run_worker(int in_fd, int out_fd);

struct ServeConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;          // 0 = ephemeral
  std::string token = "fd-fleet";  // must match the coordinator's --token
  std::string work_dir;            // staging dir; default: fd-serve.<pid>
  std::string port_file;           // if set, the bound port is written here
};

// Accept loop for `fd-attack --serve`. Returns the process exit code:
// 0 after a kShutdown from an authenticated coordinator, nonzero when
// the listener cannot be established.
int run_serve(const ServeConfig& cfg);

}  // namespace fd::fleet
