//! The shard worker process behind `BackendChoice::SocketMp` engines:
//! connects the control socket named by `argv[1]`, receives its deployment
//! configuration, and serves shard commands until told to exit (see
//! `cgselect_engine::backend::socket_mp`).

fn main() {
    std::process::exit(cgselect_engine::backend::socket_mp::worker_main());
}
