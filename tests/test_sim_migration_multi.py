"""Additional migration-runner coverage: epoch mechanics and metrics."""

from repro.sim.spec import RunSpec, run
from repro.vm.migration import MigrationConfig, MigrationStats


def _migrate(app, migration=None, n_accesses=120_000):
    """One Heter-config1 migration run and its migrator stats."""
    m = run(RunSpec(app, "Heter-config1", "homogen", n_accesses,
                    migration=migration or MigrationConfig()))
    return m, MigrationStats.from_dict(m.meta["migration"])


class TestEpochMechanics:
    def test_smaller_epochs_more_decisions(self):
        lazy, s_lazy = _migrate(
            "sift", MigrationConfig(epoch_misses=2_000),
            n_accesses=30_000)
        eager, s_eager = _migrate(
            "sift", MigrationConfig(epoch_misses=200),
            n_accesses=30_000)
        assert s_eager.n_epochs > s_lazy.n_epochs

    def test_overhead_charged_to_exec_time(self):
        """More migrations must show up as more overhead cycles, and the
        overhead must be part of execution time."""
        quiet, s_quiet = _migrate(
            "gcc",
            MigrationConfig(epoch_misses=2_000, max_migrations_per_epoch=1),
            n_accesses=25_000)
        busy, s_busy = _migrate(
            "gcc",
            MigrationConfig(epoch_misses=500, max_migrations_per_epoch=128),
            n_accesses=25_000)
        assert s_busy.overhead_cycles > s_quiet.overhead_cycles
        assert s_busy.n_migrations >= s_quiet.n_migrations

    def test_instruction_conservation(self):
        m, _ = _migrate("stitch", n_accesses=20_000)
        assert m.exec_cycles >= m.total_instructions  # ipc=1 floor

    def test_migration_helps_hotset_app(self):
        """gcc's small hot set is migration's best case: aggressive
        migration must beat never-migrating (all pages stay in LPDDR)."""
        never, _ = _migrate(
            "gcc",
            MigrationConfig(epoch_misses=10**9),  # one epoch, no decisions
            n_accesses=30_000)
        some, stats = _migrate(
            "gcc",
            MigrationConfig(epoch_misses=500, max_migrations_per_epoch=64),
            n_accesses=30_000)
        assert stats.n_migrations > 0
        assert some.mem_access_cycles < never.mem_access_cycles

    def test_deterministic(self):
        a, sa = _migrate("sift", n_accesses=15_000)
        b, sb = _migrate("sift", n_accesses=15_000)
        assert a.exec_cycles == b.exec_cycles
        assert sa.n_migrations == sb.n_migrations
