//! The `SocketMp` shard worker, built beside the `perf` binary so the
//! backend's executable-directory walk finds it.

fn main() {
    std::process::exit(cgselect_engine::backend::socket_mp::worker_main());
}
