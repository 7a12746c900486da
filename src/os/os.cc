#include "os/os.hh"

#include <algorithm>
#include <cstring>

#include "check/audit.hh"
#include "check/perturb.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace xisa {

namespace {

uint64_t
alignUp64(uint64_t x, uint64_t a)
{
    return (x + a - 1) & ~(a - 1);
}

/** Modeled size of a thread-context migration message. */
constexpr uint64_t kContextMsgBytes = 1024;

/** Apply the XISA_PERTURB fault overlay before the interconnect is
 *  constructed (the config is copied into the OS first, so the run's
 *  own record reflects what was actually injected). */
OsConfig
applySchedulePerturbation(OsConfig cfg)
{
    if (check::SchedulePerturber::enabled()) {
        uint64_t seed = check::SchedulePerturber::envSeed();
        cfg.net.faults =
            check::SchedulePerturber::perturbFaults(cfg.net.faults, seed);
        // Crash injection only targets nodes whose threads have a
        // same-ISA kernel to be re-homed onto.
        std::vector<int> victims;
        for (size_t n = 0; n < cfg.nodes.size(); ++n)
            for (size_t m = 0; m < cfg.nodes.size(); ++m)
                if (m != n && cfg.nodes[m].isa == cfg.nodes[n].isa) {
                    victims.push_back(static_cast<int>(n));
                    break;
                }
        cfg.recovery = check::SchedulePerturber::perturbRecovery(
            cfg.recovery, victims, seed);
    }
    return cfg;
}

} // namespace

OsConfig
OsConfig::dualServer()
{
    OsConfig cfg;
    cfg.nodes = {makeXenoServer(), makeAetherServer()};
    return cfg;
}

ReplicatedOS::ReplicatedOS(const MultiIsaBinary &bin, OsConfig cfg)
    : bin_(bin), cfg_(applySchedulePerturbation(std::move(cfg))),
      net_(cfg_.net), xform_(bin),
      meter_(cfg_.nodes, cfg_.energyBinSeconds)
{
    if (cfg_.nodes.empty())
        fatal("ReplicatedOS needs at least one node");
    std::vector<double> freqs;
    for (const NodeSpec &s : cfg_.nodes)
        freqs.push_back(s.freqGHz);
    dsm_ = std::make_unique<DsmSpace>(static_cast<int>(cfg_.nodes.size()),
                                      &net_, freqs, cfg_.dsmMode);
    if (cfg_.recovery.enabled) {
        // Arm before registerStats below: the page journal's stats only
        // exist once the DSM is armed.
        fd_ = std::make_unique<FailureDetector>(
            static_cast<int>(cfg_.nodes.size()), cfg_.recovery);
        dsm_->armRecovery(fd_.get());
        dsm_->setDeathHandler([this](int dead) { onNodeDeath(dead); });
    }
    for (const NodeSpec &s : cfg_.nodes) {
        nodes_.emplace_back(s, bin_);
        if (cfg_.profile)
            nodes_.back().interp->enableProfile();
        if (cfg_.execCache)
            nodes_.back().interp->shareExecCache(cfg_.execCache);
    }

    // Attach every component stat to this container's registry. Done
    // after nodes_ is fully built so vector growth cannot move a
    // registered cache (moves re-point the entry, but why rely on it).
    net_.registerStats(stats_, "net");
    dsm_->registerStats(stats_);
    xform_.registerStats(stats_, "stacktransform");
    for (size_t n = 0; n < nodes_.size(); ++n) {
        std::string np = "node" + std::to_string(n);
        NodeRuntime &nr = nodes_[n];
        for (size_t c = 0; c < nr.cores.size(); ++c) {
            std::string cp = np + ".core" + std::to_string(c);
            nr.cores[c].l1i.registerStats(stats_, cp + ".l1i");
            nr.cores[c].l1d.registerStats(stats_, cp + ".l1d");
        }
        nr.l2.registerStats(stats_, np + ".l2");
    }
    stats_.attach("os.quanta", quanta_);
    stats_.attach("os.builtin_calls", builtinCalls_);
    stats_.attach("os.thread_spawns", threadSpawns_);
    stats_.attach("os.migrations", migrationsDone_);
    stats_.attach("os.spurious_migrate_traps", spuriousMigrateTraps_);
    stats_.attach("xfault.migration_aborts", migrationAborts_);
    stats_.attach("xfault.migration_retries", migrationRetries_);
    stats_.attach("os.threads", liveThreads_);
    stats_.attach("os.migrate.response_us", migrateResponseUs_);
    stats_.attach("machine.instrs", instrsStat_);
    stats_.attach("sched.migrate_requests", migrateRequests_);
    if (fd_) {
        fd_->registerStats(stats_);
        stats_.attach("xfault.threads_recovered", threadsRecovered_);
        stats_.attach("xfault.quanta_voided", quantaVoided_);
    }

    if (check::SchedulePerturber::enabled())
        perturb_ = std::make_unique<check::SchedulePerturber>(
            check::SchedulePerturber::envSeed());
    if (check::auditRequested()) {
        auditor_ = std::make_unique<check::InvariantAuditor>(
            *dsm_, check::InvariantAuditor::Context{
                cfg_.net.faults.seed,
                check::SchedulePerturber::envSeed()});
        auditor_->attach();
        // Probe the threaded engines' superblock boundaries (no-op on
        // nodes running without the threaded engine).
        for (NodeRuntime &nr : nodes_)
            nr.interp->setSuperblockObserver(
                &auditor_->superblockAudit());
    }
}

ReplicatedOS::~ReplicatedOS() = default;

Interp &
ReplicatedOS::interp(int node)
{
    return *nodes_[static_cast<size_t>(node)].interp;
}

double
ReplicatedOS::coreTime(int node, int core) const
{
    const NodeRuntime &nr = nodes_[static_cast<size_t>(node)];
    return static_cast<double>(nr.cores[static_cast<size_t>(core)].cycles) *
           nr.spec.secondsPerCycle();
}

void
ReplicatedOS::setCoreTimeAtLeast(int node, int core, double seconds)
{
    NodeRuntime &nr = nodes_[static_cast<size_t>(node)];
    uint64_t cycles = static_cast<uint64_t>(seconds / 1e-9 * nr.spec.freqGHz);
    Core &c = nr.cores[static_cast<size_t>(core)];
    c.cycles = std::max(c.cycles, cycles);
}

int
ReplicatedOS::pickCore(int node) const
{
    const NodeRuntime &nr = nodes_[static_cast<size_t>(node)];
    int best = 0;
    for (int c = 1; c < static_cast<int>(nr.cores.size()); ++c)
        if (nr.cores[static_cast<size_t>(c)].cycles <
            nr.cores[static_cast<size_t>(best)].cycles)
            best = c;
    return best;
}

double
ReplicatedOS::now() const
{
    double t = 0;
    for (size_t n = 0; n < nodes_.size(); ++n)
        for (size_t c = 0; c < nodes_[n].cores.size(); ++c)
            t = std::max(t, coreTime(static_cast<int>(n),
                                     static_cast<int>(c)));
    return t;
}

int
ReplicatedOS::threadNode(int tid) const
{
    return threads_[static_cast<size_t>(tid)]->node;
}

bool
ReplicatedOS::finished() const
{
    if (!loaded_)
        return false;
    if (exited_)
        return true;
    for (const auto &t : threads_)
        if (t->state != ThreadState::Done)
            return false;
    return true;
}

void
ReplicatedOS::setupInitialStack(OsThread &t)
{
    const AbiInfo &abi = AbiInfo::of(t.ctx.isa);
    uint64_t top = vm::stackTop(t.stackSlot);
    if (abi.retAddrOnStack) {
        uint64_t sp = top - 8;
        uint64_t sentinel = vm::kThreadExitAddr;
        dsm_->poke(t.node, sp, &sentinel, 8);
        t.ctx.gpr[abi.spReg] = sp;
    } else {
        t.ctx.gpr[abi.spReg] = top;
        t.ctx.gpr[abi.linkReg] = vm::kThreadExitAddr;
    }
}

int
ReplicatedOS::createThread(int node, uint32_t funcId,
                           const std::vector<uint64_t> &intArgs)
{
    auto thread = std::make_unique<OsThread>();
    OsThread &t = *thread;
    t.tid = static_cast<int>(threads_.size());
    t.node = node;
    t.core = pickCore(node);
    t.stackSlot = nextStackSlot_++;
    t.ctx.isa = nodes_[static_cast<size_t>(node)].spec.isa;
    t.ctx.pc = {funcId, 0};
    t.kcont.isa = t.ctx.isa;
    t.kcont.node = node;

    // TLS block: one common-format image per thread, page-separated.
    uint64_t stride = alignUp64(std::max<uint64_t>(bin_.tlsSize, 16),
                                vm::kPageSize);
    t.ctx.tlsBase = vm::kTlsBase + static_cast<uint64_t>(t.tid) * stride;
    if (!bin_.tlsInit.empty())
        dsm_->populate(node, t.ctx.tlsBase, bin_.tlsInit.data(),
                       bin_.tlsInit.size());

    setupInitialStack(t);
    const AbiInfo &abi = AbiInfo::of(t.ctx.isa);
    XISA_CHECK(intArgs.size() <= abi.intArgRegs.size(),
               "too many thread arguments");
    for (size_t i = 0; i < intArgs.size(); ++i)
        t.ctx.gpr[abi.intArgRegs[i]] = intArgs[i];

    if (fd_)
        commitThread(t); // newborn threads are born committed
    ++threadSpawns_;
    liveThreads_.add(1);
#if XISA_TRACE
    if (obs::traceEnabled())
        obs::Tracer::global().nameTrack(t.tid,
                                        "tid" + std::to_string(t.tid));
#endif

    threads_.push_back(std::move(thread));
    return t.tid;
}

void
ReplicatedOS::load(int startNode)
{
    XISA_CHECK(!loaded_, "container already loaded");
    if (!bin_.alignedLayout)
        warn("loading an unaligned binary: migration is unsupported");
    for (const auto &img : bin_.buildDataImages())
        dsm_->populate(startNode, img.base, img.bytes.data(),
                       img.bytes.size());
    dsm_->broadcastWrite64(vm::kVdsoBase, 0);
    createThread(startNode, bin_.ir.entryFuncId, {});
    loaded_ = true;
}

void
ReplicatedOS::chargeKernel(OsThread &t, uint64_t cycles)
{
    NodeRuntime &nr = nodes_[static_cast<size_t>(t.node)];
    Core &core = nr.cores[static_cast<size_t>(t.core)];
    double t0 = coreTime(t.node, t.core);
    core.cycles += cycles;
    core.busyCycles += cycles;
    meter_.addBusy(t.node, t0, coreTime(t.node, t.core));
}

ReplicatedOS::OsThread *
ReplicatedOS::pickNext()
{
    lastRun_.resize(threads_.size(), 0);
    OsThread *best = nullptr;
    double bestTime = 0;
    for (auto &tp : threads_) {
        if (tp->state != ThreadState::Ready)
            continue;
        double ct = coreTime(tp->node, tp->core);
        if (!best || ct < bestTime ||
            (ct == bestTime && lastRun_[static_cast<size_t>(tp->tid)] <
                                   lastRun_[static_cast<size_t>(
                                       best->tid)])) {
            best = tp.get();
            bestTime = ct;
        }
    }
    if (best)
        lastRun_[static_cast<size_t>(best->tid)] = ++runSeq_;
    return best;
}

OsRunResult
ReplicatedOS::run()
{
    XISA_CHECK(loaded_, "run() before load()");
    while (!finished()) {
        pollFailures();
        OsThread *t = pickNext();
        if (!t)
            panic("deadlock: blocked threads but nothing runnable");
        runQuantum(*t);
        if (totalInstrs_ > cfg_.maxTotalInstrs)
            fatal("global instruction budget exceeded");
    }
    if (auditor_)
        auditor_->deepCheck("end_of_run");
    OsRunResult res;
    res.finished = true;
    res.exitedExplicitly = exited_;
    res.exitCode = exited_ ? exitCode_
                           : static_cast<int64_t>(threads_[0]->exitValue);
    res.output = output_;
    res.totalInstrs = totalInstrs_;
    res.makespanSeconds = now();
    return res;
}

bool
ReplicatedOS::runUntil(double seconds)
{
    XISA_CHECK(loaded_, "runUntil() before load()");
    while (!finished()) {
        pollFailures();
        OsThread *t = pickNext();
        if (!t)
            panic("deadlock: blocked threads but nothing runnable");
        if (coreTime(t->node, t->core) >= seconds)
            return true;
        runQuantum(*t);
        if (totalInstrs_ > cfg_.maxTotalInstrs)
            fatal("global instruction budget exceeded");
    }
    return false;
}

void
ReplicatedOS::runQuantum(OsThread &t)
{
    if (fd_) {
        // Kernel-entry commit point (DESIGN.md §9): if this node's
        // crash instant passes during the slice, the quantum is voided
        // back to exactly this state.
        commitThread(t);
        dsm_->journalCommit();
    }
    NodeRuntime &nr = nodes_[static_cast<size_t>(t.node)];
    Core &core = nr.cores[static_cast<size_t>(t.core)];
    double t0 = coreTime(t.node, t.core);
    ++quanta_;
#if XISA_TRACE
    const bool tracing = obs::traceEnabled();
    if (tracing) {
        // The ambient cursor lets the layers below (interpreter memory
        // accesses -> DSM faults) timestamp their own events.
        obs::setTraceCursor(t.tid, t0);
        obs::Tracer::global().begin(t.tid, "interp", "quantum", t0);
    }
#endif
    StepResult r = nr.interp->run(t.ctx, dsm_->port(t.node), core, nr.l2,
                                  cfg_.quantum);
    totalInstrs_ += r.instrsRun;
    instrsStat_.add(r.instrsRun);
#if XISA_TRACE
    if (tracing)
        obs::Tracer::global().end(t.tid, coreTime(t.node, t.core));
#endif
    meter_.addBusy(t.node, t0, coreTime(t.node, t.core));

    if (fd_ && fd_->crashed(t.node)) {
        // The node died mid-slice (its DSM traffic pushed the link
        // clock past its crash instant). The whole quantum is a zombie:
        // roll the thread back and tear the node down; recovery undoes
        // the zombie's page steals from the journal.
        ++quantaVoided_;
        int dead = t.node;
        rollbackThread(t);
        if (dsm_->nodeAlive(dead))
            dsm_->recoverDeadNode(dead);
        auditRecovery("quantum_voided");
        if (onQuantum)
            onQuantum(*this);
        return;
    }
    switch (r.reason) {
      case StopReason::Budget:
        break;
      case StopReason::Halt:
        finishThread(t, r.exitValue);
        break;
      case StopReason::BuiltinTrap:
        execBuiltin(t, r.trapFuncId);
        break;
      case StopReason::MigrateTrap:
        handleMigrateTrap(t, r.trapCallSite);
        break;
      case StopReason::Syscall:
        fatal("unexpected raw syscall %lld",
              static_cast<long long>(r.sysno));
    }
    if (fd_) {
        if (fd_->crashed(t.node)) {
            // Died during its own stop handling: either a builtin's
            // DSM traffic (Memcpy/Memset are the only builtins that
            // advance the clock, and they mutate no kernel maps, so
            // the committed snapshot is the complete rollback), or the
            // thread just migrated onto a node that died right after
            // the handoff (rollback returns it to the source; the seq
            // stays in the ledger marked destDied).
            ++quantaVoided_;
            int dead = t.node;
            rollbackThread(t);
            if (dsm_->nodeAlive(dead))
                dsm_->recoverDeadNode(dead);
            auditRecovery("builtin_voided");
        } else {
            // Kernel-exit commit point.
            commitThread(t);
            dsm_->journalCommit();
        }
    }
    if (onQuantum)
        onQuantum(*this);
}

void
ReplicatedOS::finishThread(OsThread &t, uint64_t exitValue)
{
    t.state = ThreadState::Done;
    t.exitValue = exitValue;
    liveThreads_.add(-1);
    double tFinish = coreTime(t.node, t.core);
    for (auto &other : threads_) {
        if (other->state == ThreadState::Blocked &&
            other->kcont.kind == KernelContinuation::Kind::Join &&
            other->kcont.joinTid == t.tid)
            wake(*other, tFinish);
    }
}

void
ReplicatedOS::wake(OsThread &t, double atTime)
{
    XISA_CHECK(t.state == ThreadState::Blocked, "wake of runnable thread");
    // Complete the kernel service on the kernel it started on (the
    // heterogeneous continuation), then return to user space.
    nodes_[static_cast<size_t>(t.node)].interp->finishTrap(
        t.ctx, Type::Void, 0, 0);
    t.kcont.kind = KernelContinuation::Kind::None;
    t.kcont.pendingBuiltin = 0;
    t.state = ThreadState::Ready;
    setCoreTimeAtLeast(t.node, t.core, atTime);
    // The context advanced outside the thread's own quantum; re-commit
    // so a later rollback does not replay the completed kernel service.
    // (No clock ticks can intervene between this and the waker's own
    // end-of-quantum commit, so committing here is crash-atomic.)
    if (fd_)
        commitThread(t);
}

void
ReplicatedOS::execBuiltin(OsThread &t, uint32_t funcId)
{
    const IRFunction &callee = bin_.ir.func(funcId);
    NodeRuntime &nr = nodes_[static_cast<size_t>(t.node)];
    Interp &in = *nr.interp;
    std::vector<int64_t> args = in.readTrapArgs(t.ctx, callee);
    ++builtinCalls_;
#if XISA_TRACE
    const bool tracing = obs::traceEnabled();
    if (tracing) {
        double bt0 = coreTime(t.node, t.core);
        obs::setTraceCursor(t.tid, bt0);
        if (builtinSpanNames_.size() <= funcId)
            builtinSpanNames_.resize(bin_.ir.functions.size());
        const char *&span = builtinSpanNames_[funcId];
        if (!span)
            span = obs::intern(callee.name);
        obs::Tracer::global().begin(t.tid, "os", span, bt0);
    }
#endif
    chargeKernel(t, nr.spec.cost(MOp::SysCall));

    switch (callee.builtin) {
      case Builtin::Malloc: {
        uint64_t want = alignUp64(
            std::max<uint64_t>(static_cast<uint64_t>(args[0]), 16), 16);
        uint64_t addr = 0;
        auto it = freeLists_.find(want);
        if (it != freeLists_.end() && !it->second.empty()) {
            addr = it->second.back();
            it->second.pop_back();
        } else {
            addr = heapBrk_;
            heapBrk_ += want;
            if (heapBrk_ >= vm::kTlsBase)
                fatal("heap exhausted");
        }
        allocSizes_[addr] = want;
        in.finishTrap(t.ctx, Type::Ptr, static_cast<int64_t>(addr), 0);
        break;
      }
      case Builtin::Free: {
        uint64_t addr = static_cast<uint64_t>(args[0]);
        if (addr != 0) {
            auto it = allocSizes_.find(addr);
            if (it == allocSizes_.end())
                fatal("free() of non-heap pointer 0x%llx",
                      static_cast<unsigned long long>(addr));
            freeLists_[it->second].push_back(addr);
            allocSizes_.erase(it);
        }
        in.finishTrap(t.ctx, Type::Void, 0, 0);
        break;
      }
      case Builtin::PrintI64:
        output_.push_back(strfmt("%lld", static_cast<long long>(args[0])));
        in.finishTrap(t.ctx, Type::Void, 0, 0);
        break;
      case Builtin::PrintF64: {
        double d;
        std::memcpy(&d, &args[0], 8);
        output_.push_back(strfmt("%.6g", d));
        in.finishTrap(t.ctx, Type::Void, 0, 0);
        break;
      }
      case Builtin::Memcpy: {
        uint64_t dst = static_cast<uint64_t>(args[0]);
        uint64_t src = static_cast<uint64_t>(args[1]);
        uint64_t n = static_cast<uint64_t>(args[2]);
        std::vector<uint8_t> buf(static_cast<size_t>(n));
        uint64_t extra = dsm_->pull(t.node, src, buf.data(), buf.size());
        extra += dsm_->poke(t.node, dst, buf.data(), buf.size());
        chargeKernel(t, extra + n / 4 * nr.spec.cost(MOp::Ldr));
        in.finishTrap(t.ctx, Type::Void, 0, 0);
        break;
      }
      case Builtin::Memset: {
        uint64_t dst = static_cast<uint64_t>(args[0]);
        uint64_t n = static_cast<uint64_t>(args[2]);
        std::vector<uint8_t> buf(static_cast<size_t>(n),
                                 static_cast<uint8_t>(args[1]));
        uint64_t extra = dsm_->poke(t.node, dst, buf.data(), buf.size());
        chargeKernel(t, extra + n / 8 * nr.spec.cost(MOp::Str));
        in.finishTrap(t.ctx, Type::Void, 0, 0);
        break;
      }
      case Builtin::ThreadSpawn: {
        uint64_t fnAddr = static_cast<uint64_t>(args[0]);
        CodeLoc loc = in.codeMap().resolve(fnAddr);
        XISA_CHECK(loc.instrIdx == 0, "thread entry mid-function");
        int child = createThread(t.node, loc.funcId,
                                 {static_cast<uint64_t>(args[1])});
        OsThread &ct = *threads_[static_cast<size_t>(child)];
        setCoreTimeAtLeast(ct.node, ct.core, coreTime(t.node, t.core));
        in.finishTrap(t.ctx, Type::I64, child, 0);
        break;
      }
      case Builtin::ThreadJoin: {
        int target = static_cast<int>(args[0]);
        if (target < 0 || target >= static_cast<int>(threads_.size()))
            fatal("join of unknown thread %d", target);
        if (threads_[static_cast<size_t>(target)]->state ==
            ThreadState::Done) {
            in.finishTrap(t.ctx, Type::Void, 0, 0);
        } else {
            t.state = ThreadState::Blocked;
            t.kcont.kind = KernelContinuation::Kind::Join;
            t.kcont.joinTid = target;
            t.kcont.isa = t.ctx.isa;
            t.kcont.node = t.node;
            t.kcont.pendingBuiltin = funcId;
        }
        break;
      }
      case Builtin::BarrierWait: {
        int64_t key = args[0];
        int64_t count = args[1];
        Barrier &b = barriers_[key];
        if (b.needed == 0)
            b.needed = count;
        else if (b.needed != count)
            fatal("barrier %lld joined with inconsistent count",
                  static_cast<long long>(key));
        b.waiting.push_back(t.tid);
        if (static_cast<int64_t>(b.waiting.size()) == b.needed) {
            double releaseTime = coreTime(t.node, t.core);
            // Everyone leaves together; the last arriver just resumes.
            for (int tid : b.waiting) {
                OsThread &w = *threads_[static_cast<size_t>(tid)];
                if (tid == t.tid) {
                    in.finishTrap(t.ctx, Type::Void, 0, 0);
                } else {
                    wake(w, releaseTime);
                }
            }
            barriers_.erase(key);
        } else {
            t.state = ThreadState::Blocked;
            t.kcont.kind = KernelContinuation::Kind::Barrier;
            t.kcont.barrierKey = key;
            t.kcont.isa = t.ctx.isa;
            t.kcont.node = t.node;
            t.kcont.pendingBuiltin = funcId;
        }
        break;
      }
      case Builtin::Exit:
        exited_ = true;
        exitCode_ = args[0];
        for (auto &tp : threads_)
            tp->state = ThreadState::Done;
        liveThreads_.set(0);
        break;
      case Builtin::ThreadId:
        in.finishTrap(t.ctx, Type::I64, t.tid, 0);
        break;
      case Builtin::NodeId:
        in.finishTrap(t.ctx, Type::I64, t.node, 0);
        break;
      case Builtin::None:
        panic("builtin trap on non-builtin function");
    }
#if XISA_TRACE
    if (tracing)
        obs::Tracer::global().end(t.tid, coreTime(t.node, t.core));
#endif
}

std::vector<std::pair<uint64_t, uint64_t>>
ReplicatedOS::heapObjects() const
{
    std::vector<std::pair<uint64_t, uint64_t>> out;
    out.reserve(allocSizes_.size());
    for (const auto &[addr, size] : allocSizes_)
        out.emplace_back(addr, size);
    return out;
}

void
ReplicatedOS::updateVdsoFlag()
{
    bool pending = false;
    for (const auto &tp : threads_)
        pending |= tp->migrationTarget >= 0 &&
                   tp->state != ThreadState::Done;
    dsm_->broadcastWrite64(vm::kVdsoBase, pending ? 1 : 0);
}

void
ReplicatedOS::migrateProcess(int destNode)
{
    for (auto &tp : threads_)
        if (tp->state != ThreadState::Done)
            migrateThread(tp->tid, destNode);
}

void
ReplicatedOS::migrateThread(int tid, int destNode)
{
    OsThread &t = *threads_[static_cast<size_t>(tid)];
    if (t.state == ThreadState::Done)
        return;
    XISA_CHECK(destNode >= 0 &&
                   destNode < static_cast<int>(nodes_.size()),
               "bad destination node");
    if (fd_ && !dsm_->nodeAlive(destNode))
        return; // migration requests aimed at a dead kernel are ignored
    t.migrationTarget = destNode;
    // Response time is measured on the thread's own clock: cores
    // advance asynchronously, so the global max would overstate it.
    t.migrationRequestTime = coreTime(t.node, t.core);
    ++migrateRequests_;
    OBS_TRACE_INSTANT(t.tid, "sched", "migrate_request",
                      t.migrationRequestTime);
    updateVdsoFlag();
}

void
ReplicatedOS::handleMigrateTrap(OsThread &t, uint32_t siteId)
{
    NodeRuntime &src = nodes_[static_cast<size_t>(t.node)];
    int dest = t.migrationTarget;
    if (fd_ && dest >= 0 && !dsm_->nodeAlive(dest)) {
        // The target kernel died since the request: cancel it.
        t.migrationTarget = -1;
        dest = -1;
        updateVdsoFlag();
    }
    if (dest < 0 || dest == t.node) {
        // Spurious check (flag was set for some other thread).
        ++spuriousMigrateTraps_;
        OBS_TRACE_INSTANT(t.tid, "os.migrate", "spurious_trap",
                          coreTime(t.node, t.core));
        src.interp->finishTrap(t.ctx, Type::Void, 0, 0);
        return;
    }
    if (perturb_ && perturb_->deferMigrationTrap()) {
        // Schedule perturbation: the trap is taken one migration point
        // later, exploring migration-vs-fault interleavings the default
        // schedule never reaches. The request stays pending.
        src.interp->finishTrap(t.ctx, Type::Void, 0, 0);
        return;
    }
    if (fd_) {
        // The handoff is a commit point: the shipped context is the
        // thread's at-trap state, so the journal must hold at-trap
        // page content. Without this refresh, a crash on either side
        // of the delivery would revive the source's pages at the older
        // kernel-entry commit while the thread resumes past writes
        // those frames have never seen.
        commitThread(t);
        dsm_->journalCommit();
    }
    NodeRuntime &dst = nodes_[static_cast<size_t>(dest)];
    MigrationEvent ev;
    ev.tid = t.tid;
    ev.fromNode = t.node;
    ev.toNode = dest;
    ev.siteId = siteId;
    ev.requestTime = t.migrationRequestTime;
    ev.trapTime = coreTime(t.node, t.core);
    OBS_TRACE_BEGIN(t.tid, "os.migrate", "migrate", ev.trapTime);

    ThreadContext newCtx;
    if (dst.spec.isa != t.ctx.isa) {
        // User-space stack transformation on the source node
        // (Section 5.3), then the kernel thread-migration service.
        OBS_TRACE_BEGIN(t.tid, "stacktransform", "transform",
                        ev.trapTime);
#if XISA_TRACE
        if (obs::traceEnabled())
            obs::setTraceCursor(t.tid, ev.trapTime);
#endif
        TransformStats stats;
        newCtx = xform_.transform(t.ctx, siteId, dst.spec.isa, *dsm_,
                                  t.node, vm::stackTop(t.stackSlot),
                                  &stats);
        chargeKernel(t, StackTransformer::costCycles(stats, src.spec) +
                            stats.cycles);
        OBS_TRACE_END(t.tid, coreTime(t.node, t.core));
        ev.transform = stats;
        if (auditor_)
            auditor_->auditStackRoundTrip(xform_, t.ctx, newCtx, siteId,
                                          t.node,
                                          vm::stackTop(t.stackSlot));
    } else {
        // Homogeneous-ISA migration: state moves unmodified.
        newCtx = t.ctx;
        ++newCtx.pc.instrIdx; // resume after the migration call-out
    }
    newCtx.instrs = t.ctx.instrs;
    newCtx.cycles = t.ctx.cycles;
    newCtx.dsmExtraCycles = t.ctx.dsmExtraCycles;

    // Ship the transformed context. The source keeps its copy until the
    // destination acks, so a duplicated delivery just re-installs the
    // same context (idempotent) and a lost one is retried -- the thread
    // can never be lost or duplicated. After migrationRetryLimit failed
    // attempts the migration aborts and the thread resumes here. Under
    // crash tolerance every handoff carries a per-thread sequence
    // number recorded in the ledger, and a crash on either side of the
    // delivery resolves to the thread existing on exactly one kernel
    // (DESIGN.md §9).
    double srcDone = coreTime(t.node, t.core);
    OBS_TRACE_BEGIN(t.tid, "os.migrate", "send_context", srcDone);
    const RetryPolicy &retry = net_.retryPolicy();
    size_t ledgerIdx = 0;
    if (fd_) {
        MigrationLedgerEntry rec;
        rec.tid = t.tid;
        rec.seq = ++t.migrationSeq;
        rec.source = t.node;
        rec.dest = dest;
        ledgerIdx = migrationLedger_.size();
        migrationLedger_.push_back(rec);
    }
    double sendSeconds = 0;
    bool delivered = false;
    bool sourceCrashedPreShip = false;
    for (int attempt = 1; attempt <= cfg_.migrationRetryLimit;
         ++attempt) {
        if (fd_) {
            fd_->onMigrationShip();
            if (fd_->crashed(t.node)) {
                // The source died with the context still local: this
                // ship never happened.
                sourceCrashedPreShip = true;
                break;
            }
        }
        Interconnect::SendResult r =
            net_.send(kContextMsgBytes, dst.spec.freqGHz, dest);
        sendSeconds += r.seconds;
        if (r.status == SendStatus::Delivered) {
            if (fd_)
                fd_->onMigrationShipDone();
            delivered = true;
            break;
        }
        ++migrationRetries_;
        sendSeconds +=
            (retry.timeoutUs + retry.backoffForAttempt(attempt)) * 1e-6;
        if (fd_ && fd_->dead(dest))
            break; // destination declared dead: stop retrying
    }
    OBS_TRACE_END(t.tid, srcDone + sendSeconds);
    if (fd_ && !delivered &&
        (sourceCrashedPreShip || fd_->crashed(t.node))) {
        // Source crashed before the context reached the wire. The seq
        // was never applied anywhere; recover the thread from its
        // committed at-trap snapshot on a surviving kernel. Replaying
        // from the trap re-raises the (now spurious) migration trap and
        // execution continues.
        OBS_TRACE_INSTANT(t.tid, "os.migrate", "source_crash",
                          srcDone + sendSeconds);
        int deadSrc = t.node;
        rollbackThread(t);
        t.migrationTarget = -1;
        if (dsm_->nodeAlive(deadSrc))
            dsm_->recoverDeadNode(deadSrc);
        auditRecovery("migration_source_crash");
        return;
    }
    if (fd_ && !delivered && fd_->dead(dest) && dsm_->nodeAlive(dest)) {
        // Destination died mid-handoff and the context never landed:
        // recover the dead kernel; the abort path below keeps the
        // thread runnable on the source -- it exists exactly once.
        dsm_->recoverDeadNode(dest);
    }
    if (!delivered) {
        // Clean abort: discard the transformed context, charge the
        // wasted send time, and leave the thread runnable on the
        // source. The scheduler may re-request the migration.
        ++migrationAborts_;
        OBS_TRACE_INSTANT(t.tid, "os.migrate", "abort",
                          srcDone + sendSeconds);
        chargeKernel(t, static_cast<uint64_t>(
                            sendSeconds * src.spec.freqGHz * 1e9));
        t.migrationTarget = -1;
        updateVdsoFlag();
        src.interp->finishTrap(t.ctx, Type::Void, 0, 0);
        return;
    }
    if (fd_)
        migrationLedger_[ledgerIdx].applied = true;
    // TLB shootdown on both kernels: the thread's working set is about
    // to be pulled across, so cached translations on either side must
    // not short-circuit the coherence traffic the move will cause.
    dsm_->flushTlb(t.node);
    dsm_->flushTlb(dest);
    t.node = dest;
    t.core = pickCore(dest);
    t.ctx = newCtx;
    // Heterogeneous continuation: kernel-side state is recreated on the
    // destination kernel rather than migrated.
    t.kcont = KernelContinuation{};
    t.kcont.isa = dst.spec.isa;
    t.kcont.node = dest;
    setCoreTimeAtLeast(t.node, t.core, srcDone + sendSeconds);
    t.migrationTarget = -1;
    updateVdsoFlag();

    ev.resumeTime = coreTime(t.node, t.core);
    OBS_TRACE_END(t.tid, ev.resumeTime);
    ++migrationsDone_;
    migrateResponseUs_.add((ev.resumeTime - ev.requestTime) * 1e6);
    migrations_.push_back(ev);
    if (fd_ && fd_->crashed(ev.fromNode) &&
        dsm_->nodeAlive(ev.fromNode)) {
        // Crash between state-ship and ack: the context was installed
        // at the destination, so the thread lives exactly once, there;
        // the dead source is torn down around it.
        OBS_TRACE_INSTANT(t.tid, "os.migrate", "source_crash_after_ship",
                          ev.resumeTime);
        dsm_->recoverDeadNode(ev.fromNode);
        auditRecovery("migration_source_crash_after_ship");
    }
    if (auditor_)
        auditor_->deepCheck("migration");
}

// ---- Crash tolerance (DESIGN.md §9) ---------------------------------

bool
ReplicatedOS::nodeAlive(int node) const
{
    return dsm_->nodeAlive(node);
}

void
ReplicatedOS::commitThread(OsThread &t)
{
    t.committedCtx = t.ctx;
    t.committedNode = t.node;
}

void
ReplicatedOS::rollbackThread(OsThread &t)
{
    t.ctx = t.committedCtx;
    if (t.node != t.committedNode) {
        // Rolling back across a migration: the thread returns to its
        // committed home with a fresh kernel continuation there.
        t.node = t.committedNode;
        t.core = pickCore(t.node);
        t.kcont = KernelContinuation{};
        t.kcont.isa = t.ctx.isa;
        t.kcont.node = t.node;
    }
}

void
ReplicatedOS::pollFailures()
{
    if (!fd_)
        return;
    // Heartbeats ride the un-faulted control channel: one round per
    // scheduling decision. A peer whose crash instant passed stops
    // answering and is declared dead after the (jittered) miss budget.
    fd_->heartbeatRound();
    for (int n = 0; n < static_cast<int>(nodes_.size()); ++n)
        if (fd_->dead(n) && dsm_->nodeAlive(n))
            dsm_->recoverDeadNode(n);
}

void
ReplicatedOS::onNodeDeath(int dead)
{
    // Invoked by the DSM once the directory is reconstructed and every
    // orphaned page has a live home: this is the kernel-side half.
    for (auto &rec : migrationLedger_)
        if (rec.dest == dead && rec.applied)
            rec.destDied = true;
    for (auto &tp : threads_) {
        OsThread &t = *tp;
        if (t.state == ThreadState::Done)
            continue;
        if (t.migrationTarget == dead) {
            t.migrationTarget = -1; // cancel requests aimed at the dead
        }
        if (t.node != dead)
            continue;
        // Re-home from the committed (crash-consistent) snapshot onto
        // the lowest-id same-ISA survivor. Heterogeneous re-homing
        // would need a stack transform of a context only the dead
        // kernel could parse -- fail-stop forbids it, matching the
        // checkpoint/restore baseline's homogeneous-only limitation.
        t.ctx = t.committedCtx;
        int target = -1;
        for (int n = 0; n < static_cast<int>(nodes_.size()); ++n) {
            if (n != dead && dsm_->nodeAlive(n) &&
                nodes_[static_cast<size_t>(n)].spec.isa == t.ctx.isa) {
                target = n;
                break;
            }
        }
        if (target < 0)
            fatal("node %d died holding thread %d and no same-ISA "
                  "kernel survives: cannot re-home an ISA-%d context "
                  "(DESIGN.md section 9)",
                  dead, t.tid, static_cast<int>(t.ctx.isa));
        double was = coreTime(t.node, t.core);
        t.node = target;
        t.core = pickCore(target);
        t.committedNode = target;
        t.kcont.node = target;
        setCoreTimeAtLeast(target, t.core, was);
        ++threadsRecovered_;
        OBS_TRACE_INSTANT(t.tid, "os", "thread_recovered", was);
    }
    updateVdsoFlag();
    auditRecovery("node_death");
}

void
ReplicatedOS::auditRecovery(const char *where)
{
    if (!auditor_ || !fd_)
        return;
    for (const auto &tp : threads_)
        if (tp->state != ThreadState::Done &&
            !dsm_->nodeAlive(tp->node))
            auditor_->violation(
                where, strfmt("thread %d is live on dead node %d",
                              tp->tid, tp->node));
    // Exactly-once handoff: per thread the ledger seqs are strictly
    // increasing (each handoff attempt drew a fresh seq) and no seq was
    // applied to a kernel that is still alive more than once.
    std::vector<uint64_t> lastSeq(threads_.size(), 0);
    for (const MigrationLedgerEntry &rec : migrationLedger_) {
        size_t tid = static_cast<size_t>(rec.tid);
        if (rec.seq <= lastSeq[tid])
            auditor_->violation(
                where,
                strfmt("migration seq %llu of thread %d not "
                       "strictly increasing",
                       static_cast<unsigned long long>(rec.seq),
                       rec.tid));
        lastSeq[tid] = rec.seq;
        if (rec.applied && !rec.destDied &&
            !dsm_->nodeAlive(rec.dest))
            auditor_->violation(
                where,
                strfmt("migration seq %llu of thread %d applied at "
                       "node %d which died, but the ledger was never "
                       "reconciled",
                       static_cast<unsigned long long>(rec.seq),
                       rec.tid, rec.dest));
    }
}

} // namespace xisa
