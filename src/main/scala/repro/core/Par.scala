package repro.core

/** Tiny driver-side parallelism helper.
  *
  * The second MapReduce round runs on a single reducer (the driver here), but
  * nothing in the paper forbids that reducer from using its cores: the
  * argmax scan of OutliersCluster over |T| candidates is embarrassingly
  * parallel and dominates the probe cost at |T| ≈ 28k (Fig. 4, deterministic,
  * μ = 8). Uses the JVM common ForkJoinPool via parallel IntStream.
  */
object Par {
  def forRange(n: Int)(f: Int => Unit): Unit =
    java.util.stream.IntStream.range(0, n).parallel().forEach(i => f(i))

  /** Worker threads behind [[forRange]]. */
  def parallelism: Int = java.util.concurrent.ForkJoinPool.commonPool().getParallelism
}
